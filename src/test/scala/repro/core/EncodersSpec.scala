package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.vis.{AggOp, ExtractedChart, Extractor, Raster}

import scala.util.Random

class EncodersSpec extends AnyFunSuite {

  private val rng = new Random(21)

  private def check(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), p)
    assert(res.passed, res.status.toString)
  }

  private def walk(n: Int): Array[Double] = {
    var x = 0.0
    Array.fill(n) { x += rng.nextGaussian(); x }
  }

  test("encodeColumn computes exact raw stats") {
    val xs = Array(3.0, -1.0, 4.0, 1.0, 5.0)
    val emb = DatasetEncoder.encodeColumn(0, xs, FcmConfig(p2 = 2, useDa = false))
    assert(emb.min == -1.0 && emb.max == 5.0)
    assert(math.abs(emb.sum - 12.0) < 1e-9)
    assert(emb.nRows == 5)
  }

  test("base segmentation respects p2") {
    val emb = DatasetEncoder.encodeColumn(0, walk(256), FcmConfig(p2 = 64, useDa = false))
    assert(emb.segs.length == 4)
    assert(emb.pos.length == 4)
  }

  test("useDa=false produces no variants") {
    val emb = DatasetEncoder.encodeColumn(0, walk(256), FcmConfig(useDa = false))
    assert(emb.variants.isEmpty)
  }

  test("FCM-HCMAN encodes no DA variants (it never reads them)") {
    val cfg = FcmConfig(useHcman = false)
    assert(cfg.daWindows(1024).isEmpty)
    assert(DatasetEncoder.encodeColumn(0, walk(1024), cfg).variants.isEmpty)
  }

  test("DA variants cover 3 operators x HMRL windows") {
    val cfg = FcmConfig(p2 = 64)
    val emb = DatasetEncoder.encodeColumn(0, walk(1024), cfg)
    val windows = cfg.daWindows(1024)
    assert(windows.toSeq == Seq(4, 8, 16, 32, 64))
    assert(emb.variants.length == 3 * windows.length)
    // avg, max, min; sum is served by the avg expert
    assert(emb.variants.map(_.op).distinct.sorted.toSeq == Seq(1, 3, 4))
    emb.variants.foreach(v => assert(v.segs.nonEmpty))
  }

  test("HMRL windows are always powers of two (scalacheck)") {
    val gen = for {
      p2    <- Gen.choose(1, 600)
      nRows <- Gen.choose(0, 5000)
      useDa <- Gen.oneOf(true, false)
      hcman <- Gen.oneOf(true, false)
    } yield (FcmConfig(p2 = p2, useDa = useDa, useHcman = hcman), nRows)
    check(Prop.forAll(gen) { case (cfg, nRows) =>
      cfg.daWindows(nRows).forall(w => w > 0 && (w & (w - 1)) == 0)
    })
  }

  test("znorm of a sum window is bit-identical to the avg window (scalacheck)") {
    val gen = for {
      n      <- Gen.choose(16, 1024)
      logS   <- Gen.choose(-3.0, 6.0)
      offset <- Gen.choose(-3.0, 0.5)
      seed   <- Gen.choose(0L, Long.MaxValue)
    } yield {
      val r     = new Random(seed)
      val scale = math.pow(10.0, logS)
      var x     = 0.0
      Array.fill(n) { x += r.nextGaussian(); scale * (offset + x) }
    }
    def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    check(Prop.forAll(gen) { xs =>
      val windows = FcmConfig().daWindows(xs.length)
      windows.nonEmpty && windows.forall { w =>
        bits(Features.znorm(AggOp.aggregate(xs, AggOp.Sum, w))) ==
          bits(Features.znorm(AggOp.aggregate(xs, AggOp.Avg, w)))
      }
    })
  }

  test("constant columns encode to all-zero base segments and variants") {
    for (c <- Seq(0.0, 1e-3, 1234.567, 987654.321, 3.3e6); n <- Seq(256, 1024)) {
      val emb = DatasetEncoder.encodeColumn(0, Array.fill(n)(c), FcmConfig())
      assert(emb.variants.nonEmpty)
      (emb.segs ++ emb.variants.flatMap(_.segs)).foreach { f =>
        assert(f.forall(_ == 0.0), s"constant $c at $n rows: ${f.toSeq}")
      }
    }
  }

  test("HMRL windows never exceed p2 (the Table IV cliff)") {
    val cfg = FcmConfig(p2 = 16)
    assert(cfg.daWindows(1024).max == 16)
  }

  test("HMRL windows never exceed a quarter of the column") {
    val cfg = FcmConfig(p2 = 64)
    assert(cfg.daWindows(64).max == 16)
    assert(cfg.daWindows(8).isEmpty)
  }

  test("variant segment features are z-space (bounded magnitudes)") {
    val emb = DatasetEncoder.encodeColumn(0, walk(512).map(_ * 1e6), FcmConfig())
    (emb.segs ++ emb.variants.flatMap(_.segs)).foreach { f =>
      assert(f.forall(v => math.abs(v) < 50.0))
    }
  }

  test("encodeTable encodes every column with its index") {
    val t = DatasetEncoder.encodeTable(7L, Array(walk(128), walk(128), walk(128)), FcmConfig())
    assert(t.tableId == 7L)
    assert(t.cols.map(_.colIdx).toSeq == Seq(0, 1, 2))
  }

  test("chart encoder segments each extracted line by p1") {
    val s   = walk(256)
    val img = Raster.render(Array(s), 480, 240)
    val ex  = Extractor.extract(img)
    val emb = ChartEncoder.encode(ex, FcmConfig(p1 = 60))
    assert(emb.m == 1)
    assert(emb.lines(0).segs.length == 8)
    assert(emb.lines(0).pooled.length == Features.Dim)
    assert(emb.yLo < emb.yHi)
  }

  test("encoding is deterministic") {
    val ex  = ExtractedChart(Array(walk(100)), 0.0, 1.0)
    val a = ChartEncoder.encode(ex, FcmConfig())
    val b = ChartEncoder.encode(ex, FcmConfig())
    assert(a.lines(0).segs.flatten.toSeq == b.lines(0).segs.flatten.toSeq)
  }

  test("featureDim follows the variant") {
    assert(FcmConfig().featureDim == 6)
    assert(FcmConfig(useHcman = false).featureDim == 3)
  }

  test("headWeights fall back to defaults and accept trained weights") {
    val cfg = FcmConfig()
    assert(cfg.headWeights.length == cfg.featureDim + 1)
    val trained = Array.fill(7)(0.5)
    assert(cfg.withWeights(trained).headWeights eq trained)
  }
}
