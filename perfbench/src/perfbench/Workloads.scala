package perfbench

import org.apache.spark.sql.SparkSession
import repro.bench.{BenchData, BenchTable, GroundTruth, QueryPack}
import repro.core.ChartEncoder
import repro.eval.Metrics
import repro.index.IndexStrategy
import repro.vis.{ExtractedChart, Extractor}

import scala.collection.mutable.ArrayBuffer
import scala.util.Random
import scala.util.control.NonFatal

final case class Metric(value: Double, unit: String)

/** What a run reports: queries answered and failed, every end-to-end
  * metric, and with tracing on every per-layer metric.
  */
final case class Outcome(
    attempted: Int,
    failed: Int,
    e2e: Seq[(String, Metric)],
    layers: Seq[(String, Metric)]
)

/** One run of one workload: generated inputs, set-up, and the shared steps
  * of the three workloads.
  */
final class Run(val spark: SparkSession, val workload: String, val seed: Long, val seconds: Double, val stats: TaskStats) {
  val rng                      = new Random(seed * 1000003L + 17L)
  val bench                    = Inputs.balanced(BenchData.generate(spark, Inputs.config(workload, seed)), rng)
  Main.log(s"generated ${bench.queries.length} queries, ${bench.repo.length} tables")
  val byId: Map[Long, BenchTable] = bench.repo.map(t => t.id -> t).toMap
  val allIds: Set[Long]        = byId.keySet
  val k: Int                   = bench.cfg.k
  val (ready, setups)          = Setup.run(spark, bench)
  Main.log(s"set up ${Setup.Reps} times")

  /** Call `f` until `seconds` have passed and it ran at least `min` times;
    * also returns the loop's start and end (ns).
    */
  def loop[A](min: Int, seconds: Double = seconds)(f: Int => A): (Seq[A], (Long, Long)) = {
    val t0       = System.nanoTime()
    val deadline = t0 + (seconds * 1e9).toLong
    val out      = ArrayBuffer.empty[A]
    while (System.nanoTime() < deadline || out.length < min) out += f(out.length)
    (out.toSeq, (t0, System.nanoTime()))
  }

  /** Mean prec@k and ndcg@k of the rankings `top` against `relevant`. */
  def quality(qs: Seq[QueryPack], top: Int => Array[Long], relevant: QueryPack => Set[Long]): Seq[(String, Metric)] = Seq(
    "eval.prec_at_k" -> Metric(Metrics.mean(qs.map(q => Metrics.precAtK(top(q.qid).toSeq, relevant(q), k))), "ratio"),
    "eval.ndcg_at_k" -> Metric(Metrics.mean(qs.map(q => Metrics.ndcgAtK(top(q.qid).toSeq, relevant(q), k))), "ratio")
  )

  /** Bytes held by persisted Spark blocks now, in MB. */
  def cacheMb: Double =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6

  def e2e(latMs: Seq[Double], pairsPerS: Double): Seq[(String, Metric)] = Seq(
    "setup_s"      -> Metric(Stats.median(setups.map(_.totalS)), "s"),
    "pairs_per_s"  -> Metric(pairsPerS, "pairs/s"),
    "query_p50_ms" -> Metric(Stats.percentile(latMs, 50), "ms"),
    "query_p90_ms" -> Metric(Stats.percentile(latMs, 90), "ms"),
    "cache_mb"     -> Metric(cacheMb, "MB")
  )

  /** Per-layer numbers of set-up and of the timed passes, plus the sampled
    * layer probes. Only called with tracing on.
    */
  def layers(
      runs: Seq[PassRun],
      window: (Long, Long),
      queries: Seq[QueryPack],
      relevant: QueryPack => Set[Long]
  ): Seq[(String, Metric)] = {
    stats.await(Passes.count)
    val tasks = runs.map(r => stats.pass(r.group))
    val cores = spark.sparkContext.defaultParallelism
    val spans = Trace.all
    val encodesPerPass = runs.map { r =>
      spans.count(s => s.name == "core.table_encode" && s.startNs >= r.startNs && s.endNs <= r.endNs).toDouble
    }
    val scoresPerPass = runs.map { r =>
      spans.count(s => s.name == "core.score" && s.startNs >= r.startNs && s.endNs <= r.endNs).toDouble
    }
    val dtwPerGtPass = queries.map(_.underlyingPrepared.length.toDouble).sum * bench.repo.map(_.cols.length).sum
    Seq(
      "bench.persist_ms"      -> Metric(Stats.median(setups.map(_.persistMs)), "ms"),
      "core.train_head_ms"    -> Metric(Stats.median(setups.map(_.trainMs)), "ms"),
      "index.build_ms"        -> Metric(Stats.median(setups.map(_.indexMs)), "ms"),
      "bench.pass_job_ms"     -> Metric(Stats.median(runs.map(_.jobMs.toDouble)), "ms"),
      "bench.pass_driver_ms"  -> Metric(Stats.median(runs.map(r => r.wallMs - r.jobMs)), "ms"),
      "bench.rows_collected"  -> Metric(Stats.median(runs.map(_.rank.values.map(_.length).sum.toDouble)), "count"),
      "bench.table_encodes"   -> Metric(Stats.median(encodesPerPass), "count"),
      "core.matching_calls"   -> Metric(Stats.median(scoresPerPass), "count"),
      "core.dtw_calls"        -> Metric(dtwPerGtPass, "count"),
      "bench.task_cpu_ms"     -> Metric(Stats.median(tasks.map(_.cpuMs)), "ms"),
      "bench.task_gc_ms"      -> Metric(Stats.median(tasks.map(_.gcMs)), "ms"),
      "bench.task_skew"       -> Metric(Stats.median(tasks.map(_.skew)), "ratio"),
      "bench.core_util"       -> Metric(Stats.median(runs.zip(tasks).map { case (r, t) => t.runMs / (cores * r.wallMs) }), "ratio"),
      "bench.result_mb"       -> Metric(Stats.median(tasks.map(_.resultBytes / 1e6)), "MB")
    ) ++ selfShares(spans, window) ++
      Probes.layers(this, queries) ++
      Probes.index(this, queries, relevant) ++
      Probes.strategies(this, queries)
  }

  /** Share of the timed loop's traced thread time that is self time of
    * each layer (and of the main `core` calls).
    */
  private def selfShares(spans: Seq[Span], window: (Long, Long)): Seq[(String, Metric)] = {
    val inLoop = spans.filter(s => s.startNs >= window._1 && s.endNs <= window._2)
    val self   = Trace.selfNs(inLoop)
    val total  = math.max(inLoop.map(s => self(s.id)).sum, 1L).toDouble
    def share(p: Span => Boolean) = inLoop.filter(p).map(s => self(s.id)).sum / total
    Seq("bench", "vis", "index").map(l => s"trace.self_share.$l" -> Metric(share(_.layer == l), "share")) ++
      Seq("core.chart_encode", "core.table_encode", "core.score", "core.prep", "core.gt_rel").map { n =>
        s"trace.self_share.$n" -> Metric(share(_.name == n), "share")
      }
  }
}

object Workloads {

  /** Untimed warm-up before the timed loop: batch passes repeat for this
    * long, so the JIT has compiled the scoring loops before timing starts.
    */
  val WarmSeconds = 6.0

  /** `search`: queries served before timing starts (taken from the end of
    * the query order, so they are never timed).
    */
  val WarmQueries = 8

  /** `search`: the loop runs past `--seconds` until it served this many
    * queries; prec/ndcg cover the first this many.
    */
  val EvalQueries = 24

  def run(r: Run): Outcome = r.workload match {
    case "scan"         => batch(r, fcm = true)
    case "ground-truth" => batch(r, fcm = false)
    case "search"       => search(r)
  }

  /** `scan` (trained full FCM, no index) and `ground-truth` (Rel(D,T)):
    * the whole query batch in one pass, repeated. Every query of a pass
    * waits for the whole pass, so the pass time is each query's latency.
    */
  private def batch(r: Run, fcm: Boolean): Outcome = {
    import r._
    val qs = bench.queries
    def pass(parent: Long) =
      if (fcm) Passes.fcm(spark, ready.ds, qs, ready.fcm, Map.empty, parent)
      else Passes.gt(spark, ready.ds, qs, parent)
    val (warm, _) = loop(1, Workloads.WarmSeconds)(_ => pass(0L))
    Main.log(s"warmed up with ${warm.length} passes")
    val (runs, window) = loop(1)(_ => Passes.timed(spark)(pass))
    Main.log(s"timed ${runs.length} passes: ${runs.map(r => f"${r.wallMs}%.0f").mkString(" ")} ms")

    val first = runs.head.rank
    val checked = rng.shuffle(qs.toSeq).take(Checks.Sampled).map { q =>
      val brute =
        if (fcm) Checks.bruteTopK(bench.repo.toSeq, k)(Checks.fcmScore(ChartEncoder.encode(q.extracted, ready.fcm), ready.fcm))
        else Checks.bruteTopK(bench.repo.toSeq, k)(Checks.gtScore(q))
      q.qid -> Checks.topKOk(first.get(q.qid), brute, k)
    }.toMap
    val failed = runs.map { run =>
      qs.count { q =>
        val got = run.rank.get(q.qid)
        !(Checks.shapeOk(got, allIds) && got.exists(g => first.get(q.qid).exists(_.sameElements(g))) &&
          checked.getOrElse(q.qid, true))
      }
    }.sum

    val passS  = Stats.median(runs.map(_.wallMs)) / 1e3
    val e2eM   = e2e(runs.map(_.wallMs), qs.length * bench.repo.length / passS)
    val layerM = if (!Trace.enabled) Nil else {
      // The reference top-k: ground truth for `scan`; for `ground-truth`
      // itself, the planted relevant set (source table + noise copies).
      val top = (qid: Int) => first.getOrElse(qid, Array.empty[Long]).take(k)
      val relevant: QueryPack => Set[Long] =
        if (fcm) { val gt = GroundTruth.topK(spark, ready.ds, qs, k); q => gt(q.qid).toSet }
        else q => Inputs.planted(q, bench.repo.toSeq)
      quality(qs.toSeq, top, relevant) ++
        layers(runs, window, qs.toSeq, if (fcm) relevant else q => top(q.qid).toSet)
    }
    Main.log("checked outputs")
    Outcome(qs.length * runs.length, failed, e2eM, layerM)
  }

  private final case class Served(
      q: QueryPack,
      ex: Option[ExtractedChart],
      cand: Set[Long],
      pass: Option[PassRun],
      top: Array[Long],
      latMs: Double,
      error: Option[Throwable]
  )

  /** `search`: one closed-loop client. Each query extracts its chart from
    * the rendered image, encodes it, asks the hybrid index for candidates,
    * runs a single-query restricted `Engine.fcmRank` pass and takes the
    * top-k; the next query is sent when this one returns.
    */
  private def search(r: Run): Outcome = {
    import r._
    val stream = Inputs.stratified(bench.queries.toSeq, rng)
    val images = stream.map(q => q.qid -> Inputs.image(q, bench, byId)).toMap

    def serve(q: QueryPack): Served = Trace.span("bench.query", 0L, q.qid) { id =>
      val t0 = System.nanoTime()
      try {
        val ex    = Trace.span("vis.extract", id, q.qid)(_ => Extractor.extract(images(q.qid)))
        val chart = Trace.span("core.chart_encode", id, q.qid)(_ => ChartEncoder.encode(ex, ready.fcm))
        val cand  = Trace.span("index.candidates", id, q.qid)(_ => ready.index.candidates(IndexStrategy.Hybrid, chart))
        val asked = q.copy(extractedLines = ex.lines, yLo = ex.yLo, yHi = ex.yHi)
        val run = Passes.timed(spark, id, q.qid) { p =>
          Passes.fcm(spark, ready.ds, Array(asked), ready.fcm, Map(q.qid -> cand), p)
        }
        val top = run.rank.getOrElse(q.qid, Array.empty[Long]).take(k)
        Served(q, Some(ex), cand, Some(run), top, Stats.ms(t0), None)
      } catch {
        case NonFatal(e) =>
          Console.err.println(s"query ${q.qid} failed: $e")
          Served(q, None, Set.empty, None, Array.empty[Long], Stats.ms(t0), Some(e))
      }
    }

    val timedQs = stream.dropRight(WarmQueries)
    stream.takeRight(WarmQueries).foreach(serve)
    Main.log("warmed up")
    val (served, window) = loop(EvalQueries)(i => serve(timedQs(i % timedQs.length)))
    Main.log(s"timed ${served.length} queries, median ${Stats.median(served.map(_.latMs))} ms")

    val ok = served.filter(_.error.isEmpty)
    val checked = rng.shuffle(ok.map(_.q.qid).distinct).take(Checks.Sampled).map { qid =>
      val s     = ok.find(_.q.qid == qid).get
      val chart = ChartEncoder.encode(s.ex.get, ready.fcm)
      val brute = Checks.bruteTopK(bench.repo.filter(t => s.cand.contains(t.id)).toSeq, k)(Checks.fcmScore(chart, ready.fcm))
      qid -> Checks.topKOk(s.pass.get.rank.get(qid), brute, k)
    }.toMap
    def good(s: Served): Boolean = s.error.isEmpty && {
      val got = s.pass.get.rank.get(s.q.qid)
      Checks.shapeOk(got, s.cand) &&
      s.ex.get.lines.length == s.q.extractedLines.length &&
      s.ex.get.lines.zip(s.q.extractedLines).forall { case (a, b) => a.sameElements(b) } &&
      checked.getOrElse(s.q.qid, true)
    }
    val failed = served.count(s => !good(s))

    val pairsPerS = served.map(_.cand.size.toDouble).sum / (served.map(_.latMs).sum / 1e3)
    val e2eM      = e2e(served.map(_.latMs), pairsPerS)
    val layerM = if (!Trace.enabled) Nil else {
      val top    = served.map(s => s.q.qid -> s.top).toMap
      val queries = served.map(_.q).distinctBy(_.qid)
      val gt     = GroundTruth.topK(spark, ready.ds, queries.toArray, k)
      val relevant: QueryPack => Set[Long] = q => gt(q.qid).toSet
      quality(served.take(EvalQueries).map(_.q), top, relevant) ++
        layers(served.flatMap(_.pass), window, queries, relevant)
    }
    Main.log("checked outputs")
    Outcome(served.length, failed, e2eM, layerM)
  }
}
