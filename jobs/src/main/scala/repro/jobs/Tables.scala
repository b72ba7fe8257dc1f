package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{BenchConfig, Experiment, Report}

/** spark-submit entrypoints, one per paper table. Each job builds (or
  * reuses) the benchmark at the appropriate scale, runs the experiment and
  * prints the same rows the paper reports.
  *
  * Usage: spark-submit --class repro.jobs.TableII <jar> [scale]
  * where scale ∈ {unit, small, bench} (default: bench; tables VII and IX
  * default to small, as in DESIGN.md §5).
  */
object Jobs {

  def session(): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-jobs")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  def scale(args: Array[String], default: BenchConfig): BenchConfig =
    args.headOption match {
      case Some("unit")  => BenchConfig.unit
      case Some("small") => BenchConfig.small
      case Some("bench") => BenchConfig.bench
      case _             => default
    }

  def experiment(args: Array[String], default: BenchConfig = BenchConfig.bench): Experiment =
    new Experiment(session(), scale(args, default))

  /** Print `title`, then the table `render` builds at the scale `args` picks. */
  def run(args: Array[String], title: String, default: BenchConfig = BenchConfig.bench)(
      render: Experiment => String
  ): Unit = {
    val e = experiment(args, default)
    println(title)
    println(render(e))
  }
}

object TableI {
  def main(args: Array[String]): Unit =
    Jobs.run(args, "Table I: benchmark statistics (counts by number of lines M)")(e =>
      Report.renderTableI(e.tableI()))
}

object TableII {
  def main(args: Array[String]): Unit =
    Jobs.run(args, "Table II: effectiveness for all queries and with/without DA")(e =>
      Report.renderMethodTable(e.tableII()))
}

object TableIII {
  def main(args: Array[String]): Unit =
    Jobs.run(args, "Table III: overall effectiveness w.r.t. varying M")(e =>
      Report.renderMethodTable(e.tableIII()))
}

object TableIV {
  def main(args: Array[String]): Unit =
    Jobs.run(args, "Table IV: breakdown of DA-based queries using prec@k")(e =>
      Report.renderTableIV(e.tableIV()))
}

object TableV {
  def main(args: Array[String]): Unit =
    Jobs.run(args, "Table V: effectiveness of FCM vs FCM-HCMAN")(e =>
      Report.renderMethodTable(e.tableV()))
}

object TableVI {
  def main(args: Array[String]): Unit =
    Jobs.run(args, "Table VI: impact of the DA-related layers (FCM vs FCM-DA)")(e =>
      Report.renderMethodTable(e.tableVI()))
}

object TableVII {
  def main(args: Array[String]): Unit =
    Jobs.run(args, "Table VII: the impact of different P1 and P2 (prec@k)", BenchConfig.small)(e =>
      Report.renderTableVII(e.tableVII()))
}

object TableVIII {
  def main(args: Array[String]): Unit =
    Jobs.run(args, "Table VIII: comparison of different indexing strategies")(e =>
      Report.renderTableVIII(e.tableVIII()))
}

object TableIX {
  def main(args: Array[String]): Unit =
    Jobs.run(args, "Table IX: the impact of the number of negative samples", BenchConfig.small)(e =>
      Report.renderTableIX(e.tableIX()))
}

/** Runs every table at its default scale (the full reproduction). */
object RunAll {
  def main(args: Array[String]): Unit = {
    TableI.main(args); TableII.main(args); TableIII.main(args); TableIV.main(args)
    TableV.main(args); TableVI.main(args); TableVII.main(args); TableVIII.main(args)
    TableIX.main(args)
  }
}
