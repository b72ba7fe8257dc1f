package perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.bench.{BenchTable, Engine, QueryPack, Scored}
import repro.core.{ChartEncoder, DatasetEncoder, FcmConfig, Matcher, Relevance}

/** One timed pass: its rankings, the job ms `Engine.pass` returned and the
  * wall ms of the whole call.
  */
final case class PassRun(group: String, rank: Map[Int, Array[Long]], jobMs: Long, startNs: Long, endNs: Long) {
  def wallMs: Double = (endNs - startNs) / 1e6
}

/** The workloads' scoring passes. Untraced runs call `Engine.fcmRank` /
  * `Engine.gtRank`. Traced runs hand `Engine.pass` the same per-table
  * closure those methods build, with a span around each call into `core`,
  * so the trace splits a pass into table encoding, scoring and the
  * driver-side rest.
  */
object Passes {

  private var passes = 0

  /** Timed pass count so far; each has job group `pass-<i>`. */
  def count: Int = passes

  def fcm(
      spark: SparkSession,
      ds: Dataset[BenchTable],
      queries: Array[QueryPack],
      cfg: FcmConfig,
      restrict: Map[Int, Set[Long]],
      parent: Long
  ): (Map[Int, Array[Long]], Long) =
    if (!Trace.enabled) Engine.fcmRank(spark, ds, queries, cfg, restrict)
    else {
      val encoded = queries.map { q =>
        (q.qid, Trace.span("core.chart_encode", parent, q.qid)(_ => ChartEncoder.encode(q.extracted, cfg)))
      }
      val bq = spark.sparkContext.broadcast(encoded)
      val br = spark.sparkContext.broadcast(restrict)
      Engine.pass(spark, ds, t => {
        val wanted = bq.value.filter { case (qid, _) =>
          br.value.isEmpty || br.value.get(qid).forall(_.contains(t.id))
        }
        if (wanted.isEmpty) Iterator.empty
        else {
          val emb = Trace.span("core.table_encode", parent, t.id)(_ => DatasetEncoder.encodeTable(t.id, t.cols, cfg))
          wanted.iterator.map { case (qid, chart) =>
            Scored(qid, t.id, Trace.span("core.score", parent, qid)(_ => Matcher.score(chart, emb, cfg)))
          }
        }
      })
    }

  def gt(
      spark: SparkSession,
      ds: Dataset[BenchTable],
      queries: Array[QueryPack],
      parent: Long
  ): (Map[Int, Array[Long]], Long) =
    if (!Trace.enabled) Engine.gtRank(spark, ds, queries)
    else {
      val bq = spark.sparkContext.broadcast(queries.map(q => (q.qid, q.underlyingPrepared)))
      Engine.pass(spark, ds, t => {
        val prepared = Trace.span("core.prep", parent, t.id)(_ => t.cols.map(Relevance.prep))
        bq.value.iterator.map { case (qid, d) =>
          Scored(qid, t.id, Trace.span("core.gt_rel", parent, qid)(_ => Relevance.relPrepared(d, prepared)))
        }
      })
    }

  /** Run `f` as the next timed pass, in its own job group and span. */
  def timed(spark: SparkSession, parent: Long = 0L, req: Long = -1L)(
      f: Long => (Map[Int, Array[Long]], Long)
  ): PassRun = {
    val group = s"pass-$passes"
    passes += 1
    spark.sparkContext.setJobGroup(group, group)
    try {
      val t0 = System.nanoTime()
      val (rank, jobMs) = Trace.span("bench.pass", parent, req)(f)
      PassRun(group, rank, jobMs, t0, System.nanoTime())
    } finally spark.sparkContext.clearJobGroup()
  }
}
