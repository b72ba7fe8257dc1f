package perfbench

import java.io.File

import org.apache.spark.sql.SparkSession

/** Benchmark entry point:
  * `Main --workload <scan|search|ground-truth> --seed <n> --seconds <s> --trace <0|1> --out <dir>`.
  *
  * Prints progress on stderr and, as the last line of stdout, one JSON
  * object with `correct`, `attempted`, `failed` and `metrics` (end-to-end
  * metrics untraced, per-layer metrics traced). A traced run also writes
  * its spans to `<out>/trace-<workload>-<seed>.jsonl`.
  */
object Main {

  /** Progress line on stderr, stamped with seconds since JVM start. */
  def log(msg: String): Unit =
    Console.err.println(f"[perfbench ${java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%7.2f s] $msg")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = opt("workload")
    val seed    = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val out     = new File(opt("out"))
    Trace.enabled = opt("trace") == "1"

    log("jvm up")
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-$workload")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.local.dir", new File(out, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(out, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    log(s"spark local[$cores] up")
    val stats = new TaskStats
    spark.sparkContext.addSparkListener(stats)
    try {
      val run     = new Run(spark, workload, seed, seconds, stats)
      val outcome = Workloads.run(run)
      if (Trace.enabled) Trace.write(new File(out, s"trace-$workload-$seed.jsonl"))
      println(json(outcome, if (Trace.enabled) outcome.layers else outcome.e2e))
    } finally spark.stop()
  }

  private def json(o: Outcome, metrics: Seq[(String, Metric)]): String = {
    val body = metrics.map { case (name, m) =>
      require(!m.value.isNaN && !m.value.isInfinite, s"metric $name is ${m.value}")
      s""""$name": {"value": ${m.value}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": ${o.failed == 0}, "attempted": ${o.attempted}, "failed": ${o.failed}, "metrics": {${body.mkString(", ")}}}"""
  }
}
