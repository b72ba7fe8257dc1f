package perfbench

import repro.bench.QueryPack
import repro.core._
import repro.index.IndexStrategy
import repro.vis.{AggOp, Extractor}

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Per-layer probes of a traced run: public calls of each layer timed from
  * outside, on a seeded sample of the workload's own queries and tables.
  * `_us` numbers are per call, each the median of `Reps` repeats.
  */
object Probes {

  /** Sampled (query, table) pairs per run. */
  val Pairs = 6

  val Reps = 3

  /** Queries of the per-strategy single-query passes. */
  val StrategyQueries = 2

  private def us[A](name: String, parent: Long)(f: => A): (A, Double) = {
    var out: Option[A] = None
    val ts = (1 to Reps).map { _ =>
      val t0 = System.nanoTime()
      out = Some(Trace.span(name, parent)(_ => f))
      (System.nanoTime() - t0) / 1e3
    }
    (out.get, Stats.median(ts))
  }

  private val HeadEvals = 1000

  /** The head's arithmetic (bias + w.x through `Matcher.sigmoid`) repeated
    * `HeadEvals` times; the n * 1e-12 term keeps the JIT from hoisting the
    * loop-invariant evaluation out of the loop.
    */
  private def evalHead(x: Array[Double], w: Array[Double]): Double = {
    var acc = 0.0
    var n   = 0
    while (n < HeadEvals) {
      var z = w(0)
      var i = 0
      while (i < x.length) { z += w(i + 1) * x(i); i += 1 }
      acc += Matcher.sigmoid(z + n * 1e-12)
      n += 1
    }
    acc
  }

  private def avg(xs: collection.Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length

  private val OpNames: Seq[(Int, String)] = (0 -> "identity") +: AggOp.all.toSeq.map(o => o.id -> o.name)

  /** The sample is measured twice and the first round discarded: a
    * workload may not have run some of these calls yet (the FCM in
    * `ground-truth`), and their first calls would time the JIT.
    */
  def layers(r: Run, queries: Seq[QueryPack]): Seq[(String, Metric)] = Trace.span("bench.probe") { root =>
    sampled(r, queries, root)
    sampled(r, queries, root)
  }

  private def sampled(r: Run, queries: Seq[QueryPack], root: Long): Seq[(String, Metric)] = {
    val rng  = new Random(r.seed * 7919L + 1L)
    val fcm  = r.ready.fcm
    val base = fcm.copy(useDa = false)
    val repo = r.bench.repo
    val sample = Seq.fill(Pairs)((queries(rng.nextInt(queries.length)), repo(rng.nextInt(repo.length))))

    val extract, chartEnc, tabEnc, tabBase, variants = ArrayBuffer.empty[Double]
    val ident, daOnly, evals, llsan, head, score, matching = ArrayBuffer.empty[Double]
    val prep, dtw, gtRel, gtMatch = ArrayBuffer.empty[Double]
    val gate   = new Array[Int](OpNames.length)
    var daUs   = 0.0
    var scUs   = 0.0
    sample.foreach { case (q, t) =>
      val img         = Inputs.image(q, r.bench, r.byId)
      val (ex, exUs)  = us("vis.extract", root)(Extractor.extract(img))
      val (chart, cUs) = us("core.chart_encode", root)(ChartEncoder.encode(ex, fcm))
      val (emb, eUs)  = us("core.table_encode", root)(DatasetEncoder.encodeTable(t.id, t.cols, fcm))
      extract += exUs; chartEnc += cUs; tabEnc += eUs
      tabBase += us("core.table_encode_base", root)(DatasetEncoder.encodeTable(t.id, t.cols, base))._2
      variants += emb.cols.map(_.variants.length).sum.toDouble

      // SL-SAN: identity expert alone, then the whole MoE (identity + DA).
      val u       = Array.ofDim[Double](chart.m, emb.cols.length)
      var pairsUs = 0.0
      for (i <- 0 until chart.m; c <- emb.cols.indices) {
        val line = chart.lines(i)
        val col  = emb.cols(c)
        val (_, idUs)       = us("core.slsan_identity", root)(Matcher.pairFeatures(line.segs, line.pos, col.segs, col.pos, fcm))
        val ((f, op), mUs)  = us("core.slsan_da", root)(Matcher.daPairFeatures(line, col, fcm))
        ident += idUs; daOnly += mUs - idUs; evals += col.variants.length.toDouble
        gate(OpNames.indexWhere(_._1 == op)) += 1
        pairsUs += mUs; daUs += mUs - idUs
        u(i)(c) = Matcher.preScore(f)
      }
      // LL-SAN is tableFeatures minus its pair calls.
      val (_, tfUs) = us("core.table_features", root)(Matcher.tableFeatures(chart, emb, fcm))
      val (_, sUs)  = us("core.score", root)(Matcher.score(chart, emb, fcm))
      score += sUs; scUs += sUs
      // The head is bias + w.x through a sigmoid: well under a microsecond,
      // so it is timed over HeadEvals evaluations.
      head += us("core.head", root)(evalHead(Matcher.features(chart, emb, fcm), fcm.headWeights))._2 / HeadEvals
      if (chart.m > 0 && emb.cols.nonEmpty) {
        llsan += tfUs - pairsUs
        matching += us("core.matching", root)(Matching.maxWeight(u))._2
      }

      // Ground truth: prep each column, DTW each (series, column), Rel.
      val prepared = t.cols.map { c =>
        val (p, pUs) = us("core.prep", root)(Relevance.prep(c))
        prep += pUs
        p
      }
      val d = q.underlyingPrepared
      val w = Array.tabulate(d.length, prepared.length) { (i, j) =>
        val (v, dUs) = us("core.dtw", root)(Dtw.rel(d(i), prepared(j)))
        dtw += dUs
        v
      }
      gtRel += us("core.gt_rel", root)(Relevance.relPrepared(d, prepared))._2
      if (d.nonEmpty && prepared.nonEmpty) gtMatch += us("core.gt_matching", root)(Matching.maxWeight(w))._2
    }

    val pairsScored = math.max(gate.sum, 1).toDouble
    Seq(
      "vis.extract_us"            -> Metric(avg(extract), "us"),
      "core.chart_encode_us"      -> Metric(avg(chartEnc), "us"),
      "core.table_encode_us"      -> Metric(avg(tabEnc), "us"),
      "core.table_encode_base_us" -> Metric(avg(tabBase), "us"),
      "core.da_variants_per_table" -> Metric(avg(variants), "count"),
      "core.slsan_identity_us"    -> Metric(avg(ident), "us"),
      "core.slsan_da_us"          -> Metric(avg(daOnly), "us"),
      "core.da_pair_evals"        -> Metric(avg(evals), "count"),
      "core.da_share"             -> Metric(if (scUs > 0) daUs / scUs else 0.0, "share"),
      "core.llsan_us"             -> Metric(avg(llsan), "us"),
      "core.head_us"              -> Metric(avg(head), "us"),
      "core.score_us"             -> Metric(avg(score), "us"),
      "core.matching_us"          -> Metric(avg(matching), "us"),
      "core.prep_us"              -> Metric(avg(prep), "us"),
      "core.dtw_us"               -> Metric(avg(dtw), "us"),
      "core.gt_rel_us"            -> Metric(avg(gtRel), "us"),
      "core.gt_matching_us"       -> Metric(avg(gtMatch), "us"),
      "core.gate_op_acc"          -> Metric(gateOpAccuracy(r, queries), "ratio")
    ) ++ OpNames.zipWithIndex.map { case ((_, name), i) =>
      s"core.gate_wins.$name" -> Metric(gate(i) / pairsScored, "share")
    }
  }

  /** Share of DA queries whose gate picks the query's true operator, by
    * majority over its lines, each paired with the source column it plots
    * (lines are extracted in plotting order).
    */
  private def gateOpAccuracy(r: Run, queries: Seq[QueryPack]): Double = {
    val fcm = r.ready.fcm
    val da  = queries.filter(_.isDa)
    val hits = da.count { q =>
      val src   = r.byId(q.sourceTable)
      val chart = ChartEncoder.encode(q.extracted, fcm)
      val ops = (0 until math.min(chart.m, src.specCols.length)).map { i =>
        val c = src.specCols(i)
        Matcher.daPairFeatures(chart.lines(i), DatasetEncoder.encodeColumn(c, src.cols(c), fcm), fcm)._2
      }
      ops.nonEmpty && ops.groupBy(identity).toSeq.maxBy { case (op, v) => (v.size, -op) }._1 == q.opId
    }
    if (da.isEmpty) 0.0 else hits.toDouble / da.length
  }

  private val Strategies: Seq[(String, IndexStrategy)] = Seq(
    "interval" -> IndexStrategy.IntervalOnly,
    "lsh"      -> IndexStrategy.LshOnly,
    "hybrid"   -> IndexStrategy.Hybrid
  )

  /** Candidates, pruned share and recall of the reference top-k per index
    * strategy, over every query of the workload.
    */
  def index(r: Run, queries: Seq[QueryPack], relevant: QueryPack => Set[Long]): Seq[(String, Metric)] =
    Trace.span("bench.probe") { root =>
      val n = r.bench.repo.length.toDouble
      val rows = for {
        q <- queries
        chart = ChartEncoder.encode(q.extracted, r.ready.fcm)
        (name, s) <- Strategies
      } yield {
        val (cand, cUs) = us("index.candidates", root)(r.ready.index.candidates(s, chart))
        val rel = relevant(q)
        (name, cUs, cand.size.toDouble, if (rel.isEmpty) 1.0 else rel.count(cand.contains).toDouble / rel.size)
      }
      Strategies.flatMap { case (name, _) =>
        val rs = rows.filter(_._1 == name)
        Seq(
          s"index.candidates_us.$name" -> Metric(avg(rs.map(_._2)), "us"),
          s"index.candidates.$name"    -> Metric(avg(rs.map(_._3)), "count"),
          s"index.pruned.$name"        -> Metric(1.0 - avg(rs.map(_._3)) / n, "share"),
          s"index.recall.$name"        -> Metric(avg(rs.map(_._4)), "ratio")
        )
      }
    }

  /** Table VIII analogue: one single-query pass per strategy (candidate
    * lookup included) on the first queries in serving order.
    */
  def strategies(r: Run, queries: Seq[QueryPack]): Seq[(String, Metric)] = {
    val qs  = Inputs.stratified(queries, new Random(r.seed)).take(StrategyQueries)
    val fcm = r.ready.fcm
    (("noindex" -> IndexStrategy.NoIndex) +: Strategies).map { case (name, s) =>
      val ms = qs.map { q =>
        val t0 = System.nanoTime()
        val restrict =
          if (s == IndexStrategy.NoIndex) Map.empty[Int, Set[Long]]
          else Map(q.qid -> r.ready.index.candidates(s, ChartEncoder.encode(q.extracted, fcm)))
        Passes.fcm(r.spark, r.ready.ds, Array(q), fcm, restrict, 0L)
        Stats.ms(t0)
      }
      s"bench.search_ms.$name" -> Metric(Stats.median(ms), "ms")
    }
  }
}
