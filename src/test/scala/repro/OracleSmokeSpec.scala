package repro

import org.apache.spark.sql.functions._

/** Sanity checks of the DuckDB oracle against Spark SQL over the TPC-H-lite
  * `lineitem` generator: a group-by count, min/max by key and a filtered
  * join — catches canonicalisation drift early.
  */
class OracleSmokeSpec extends SparkSpec {

  private def lineitem = SynthData.lineitem(spark, 0.001)

  test("lineitem counts by return flag match DuckDB") {
    val li = lineitem
    val df = li
      .groupBy(col("l_returnflag"))
      .agg(count(lit(1)).cast("long").as("n"))
    Oracle.assertEquivalent(
      df,
      "SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag",
      "lineitem" -> li
    )
  }

  test("lineitem price extremes by line status match DuckDB") {
    val li = lineitem
    val df = li
      .groupBy(col("l_linestatus"))
      .agg(min(col("l_extendedprice")).as("lo"), max(col("l_extendedprice")).as("hi"))
    Oracle.assertEquivalent(
      df,
      """SELECT l_linestatus, MIN(CAST(l_extendedprice AS DOUBLE)) AS lo,
        |       MAX(CAST(l_extendedprice AS DOUBLE)) AS hi
        |FROM lineitem GROUP BY l_linestatus""".stripMargin,
      "lineitem" -> li
    )
  }

  test("filtered lineitem self-join cardinality matches DuckDB") {
    val li = lineitem
    val a  = li.as("a")
    val b  = li.as("b")
    val df = a
      .join(b, col("a.l_orderkey") === col("b.l_orderkey"))
      .where(col("a.l_returnflag") === "R" && col("b.l_linestatus") === "F")
      .agg(count(lit(1)).cast("long").as("n"))
    Oracle.assertEquivalent(
      df,
      """SELECT COUNT(*) AS n
        |FROM lineitem a JOIN lineitem b ON CAST(a.l_orderkey AS BIGINT) = CAST(b.l_orderkey AS BIGINT)
        |WHERE a.l_returnflag = 'R' AND b.l_linestatus = 'F'""".stripMargin,
      "lineitem" -> li
    )
  }
}
