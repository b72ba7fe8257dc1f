package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.vis.{AggOp, ExtractedChart, Extractor, Raster}

import scala.util.Random

class MatcherSpec extends AnyFunSuite {

  private val rng = new Random(31)
  private val cfg = FcmConfig()

  private def walk(n: Int, seed: Int = 0): Array[Double] = {
    val r = new Random(seed + 100)
    var x = 0.0
    Array.fill(n) { x += r.nextGaussian(); x }
  }

  private def chartOf(series: Array[Array[Double]], c: FcmConfig = cfg): ChartEmb = {
    val img = Raster.render(series, 480, 240)
    ChartEncoder.encode(Extractor.extract(img), c)
  }

  test("pairFeatures: matching series scores much higher than unrelated") {
    val s = walk(512, 1)
    val chart = chartOf(Array(s))
    val line  = chart.lines(0)
    val same  = DatasetEncoder.encodeColumn(0, s, cfg)
    val other = DatasetEncoder.encodeColumn(0, walk(512, 2), cfg)
    val fSame  = Matcher.pairFeatures(line.segs, line.pos, same.segs, same.pos, cfg)
    val fOther = Matcher.pairFeatures(line.segs, line.pos, other.segs, other.pos, cfg)
    assert(Matcher.preScore(fSame) > Matcher.preScore(fOther) + 0.1)
  }

  test("pairFeatures values are in [0, 1]") {
    val chart = chartOf(Array(walk(256, 3)))
    val col   = DatasetEncoder.encodeColumn(0, walk(256, 4), cfg)
    val f = Matcher.pairFeatures(chart.lines(0).segs, chart.lines(0).pos, col.segs, col.pos, cfg)
    assert(f.length == Matcher.PairFeatDim)
    f.foreach(v => assert(v >= 0.0 && v <= 1.0 + 1e-9))
  }

  test("pairFeatures with empty sides is all zero") {
    val f = Matcher.pairFeatures(Array.empty, Array.empty, Array.empty, Array.empty, cfg)
    assert(f.forall(_ == 0.0))
  }

  test("MoE gate infers aggregation for an avg-aggregated chart") {
    // A noisy series: aggregation genuinely smooths it, so the aggregated
    // chart is far from the raw column's z-shape. (For a pure random walk
    // smoothing is a near-no-op and identity is a legitimate answer.)
    val r = new Random(55)
    val col = Array.tabulate(1024)(i => math.sin(i / 60.0) * 3 + r.nextGaussian())
    val d   = AggOp.aggregate(col, AggOp.Avg, 32)
    val chart = chartOf(Array(d))
    val emb = DatasetEncoder.encodeColumn(0, col, cfg)
    val (_, op) = Matcher.daPairFeatures(chart.lines(0), emb, cfg)
    // an aggregation expert (not identity) must win; with symmetric noise
    // avg/sum/max/min z-shapes are near-equivalent, so any operator counts
    assert(op != 0)
  }

  test("MoE gate prefers identity for a non-aggregated chart") {
    val col = walk(1024, 6)
    val chart = chartOf(Array(col))
    val emb = DatasetEncoder.encodeColumn(0, col, cfg)
    val (_, op) = Matcher.daPairFeatures(chart.lines(0), emb, cfg)
    assert(op == 0)
  }

  test("daPairFeatures beats identity-only matching on aggregated charts") {
    val col = walk(1024, 7)
    val d   = AggOp.aggregate(col, AggOp.Avg, 32)
    val chart = chartOf(Array(d))
    val embDa = DatasetEncoder.encodeColumn(0, col, cfg)
    val (fDa, _) = Matcher.daPairFeatures(chart.lines(0), embDa, cfg)
    val fId = Matcher.pairFeatures(chart.lines(0).segs, chart.lines(0).pos, embDa.segs, embDa.pos, cfg)
    assert(Matcher.preScore(fDa) > Matcher.preScore(fId))
  }

  test("the gate's choice is unchanged when columns also carry sum variants") {
    // The encoder builds no sum experts. Re-adding them in operator id
    // order (avg, sum, max, min) must change neither the winning features
    // nor the op: each sum variant equals its avg twin and comes after it,
    // so the strict `>` keeps the avg one.
    var avgWins = 0
    for (seed <- 0 until 6; op <- Seq(AggOp.Avg, AggOp.Sum); w <- Seq(8, 32)) {
      val r   = new Random(seed)
      val col = Array.tabulate(1024)(i => math.sin(i / (20.0 + 10 * seed)) * 3 + r.nextGaussian())
      val line = chartOf(Array(AggOp.aggregate(col, op, w))).lines(0)
      val emb  = DatasetEncoder.encodeColumn(0, col, cfg)
      val withSum = emb.copy(variants = for {
        o  <- AggOp.all
        dw <- cfg.daWindows(col.length)
      } yield DatasetEncoder.variant(col, o, dw, cfg))
      val (f, got)  = Matcher.daPairFeatures(line, emb, cfg)
      val (fs, exp) = Matcher.daPairFeatures(line, withSum, cfg)
      assert(got == exp)
      assert(f.map(java.lang.Double.doubleToRawLongBits).toSeq == fs.map(java.lang.Double.doubleToRawLongBits).toSeq)
      if (got == AggOp.Avg.id) avgWins += 1
    }
    assert(avgWins > 0) // the avg expert won somewhere, so the tie rule was exercised
  }

  test("rangeOverlap: containment, disjoint and DA sum-extension") {
    val chart = ChartEmb(Array.empty, 0.0, 10.0)
    val within   = ColumnEmb(0, 4, 2.0, 8.0, 20.0, Array.empty, Array.empty, Array.empty)
    val disjoint = ColumnEmb(0, 4, 100.0, 200.0, 600.0, Array.empty, Array.empty, Array.empty)
    assert(Matcher.rangeOverlap(chart, within, useDa = false) == 0.6)
    assert(Matcher.rangeOverlap(chart, disjoint, useDa = false) == 0.0)
    // sum reaches down into the chart range when aggregation is considered
    val sumReaches = ColumnEmb(0, 4, 100.0, 200.0, 5.0, Array.empty, Array.empty, Array.empty)
    assert(Matcher.rangeOverlap(chart, sumReaches, useDa = true) > 0.0)
  }

  test("tableFeatures has the right arity and bounded values") {
    val t = DatasetEncoder.encodeTable(1L, Array(walk(256, 8), walk(256, 9)), cfg)
    val chart = chartOf(Array(walk(256, 8)))
    val x = Matcher.tableFeatures(chart, t, cfg)
    assert(x.length == 6)
    x.foreach(v => assert(v >= 0.0 && v <= 1.0 + 1e-9))
  }

  test("score of the source table exceeds an unrelated table") {
    val cols = Array(walk(512, 10), walk(512, 11))
    val chart = chartOf(Array(cols(0)))
    val self  = DatasetEncoder.encodeTable(1L, cols, cfg)
    val other = DatasetEncoder.encodeTable(2L, Array(walk(512, 12), walk(512, 13)), cfg)
    assert(Matcher.score(chart, self, cfg) > Matcher.score(chart, other, cfg))
  }

  test("multi-line chart matches distinct columns via LL-SAN assignment") {
    val a = walk(256, 14)
    val b = walk(256, 15).map(_ + 50)
    val chart = chartOf(Array(a, b))
    val self = DatasetEncoder.encodeTable(1L, Array(a, b), cfg)
    val x = Matcher.tableFeatures(chart, self, cfg)
    assert(x(4) == 1.0) // both lines confidently matched (b5)
  }

  test("hcmanOffFeatures: 3 dims, self-match beats unrelated") {
    val offCfg = cfg.copy(useHcman = false)
    val s = walk(512, 16)
    val chart = chartOf(Array(s), offCfg)
    val self  = DatasetEncoder.encodeTable(1L, Array(s), offCfg)
    val other = DatasetEncoder.encodeTable(2L, Array(walk(512, 17)), offCfg)
    val xs = Matcher.hcmanOffFeatures(chart, self, offCfg)
    val xo = Matcher.hcmanOffFeatures(chart, other, offCfg)
    assert(xs.length == 3 && xo.length == 3)
    assert(Matcher.score(chart, self, offCfg) > Matcher.score(chart, other, offCfg))
  }

  test("scores are valid probabilities") {
    val chart = chartOf(Array(walk(128, 18)))
    val t = DatasetEncoder.encodeTable(1L, Array(walk(128, 19)), cfg)
    val s = Matcher.score(chart, t, cfg)
    assert(s > 0.0 && s < 1.0)
  }

  test("sigmoid sanity") {
    assert(Matcher.sigmoid(0.0) == 0.5)
    assert(Matcher.sigmoid(100.0) > 0.999)
    assert(Matcher.sigmoid(-100.0) < 0.001)
  }
}
