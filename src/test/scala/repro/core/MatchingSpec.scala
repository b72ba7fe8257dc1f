package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

class MatchingSpec extends AnyFunSuite {

  /** Run a scalacheck property under ScalaTest (scalatestplus is not on the
    * offline classpath, so we drive scalacheck's runner directly).
    */
  private def check(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), p)
    assert(res.passed, res.status.toString)
  }

  /** Exhaustive optimum: try every injective assignment (rows may skip);
    * entries ≤ 0 or NaN are not edges.
    */
  private def brute(w: Array[Array[Double]]): Double = {
    val nC = if (w.isEmpty) 0 else w(0).length
    def go(i: Int, used: Int): Double =
      if (i == w.length) 0.0
      else
        (0 until nC)
          .filter(c => (used & (1 << c)) == 0 && w(i)(c) > 0)
          .foldLeft(go(i + 1, used))((best, c) => math.max(best, w(i)(c) + go(i + 1, used | (1 << c))))
    go(0, 0)
  }

  /** 1–6 rows × 1–8 columns, with ties, zeros, negatives and NaN. */
  private val matrixGen: Gen[Array[Array[Double]]] = for {
    nR <- Gen.choose(1, 6)
    nC <- Gen.choose(1, 8)
    vs <- Gen.listOfN(nR * nC, Gen.frequency(
      6 -> Gen.choose(0.0, 10.0),
      2 -> Gen.choose(1, 3).map(_.toDouble),
      2 -> Gen.const(0.0),
      1 -> Gen.const(-1.0),
      1 -> Gen.const(Double.NaN),
    ))
  } yield Array.tabulate(nR, nC)((i, j) => vs(i * nC + j))

  test("known 2x2 matrix picks the cross assignment") {
    val w = Array(Array(1.0, 10.0), Array(10.0, 1.0))
    val (total, assign) = Matching.maxWeight(w)
    assert(total == 20.0)
    assert(assign.toSeq == Seq(1, 0))
  }

  test("diagonal-dominant matrix picks the diagonal") {
    val w = Array(Array(5.0, 1.0, 1.0), Array(1.0, 5.0, 1.0), Array(1.0, 1.0, 5.0))
    val (total, assign) = Matching.maxWeight(w)
    assert(total == 15.0)
    assert(assign.toSeq == Seq(0, 1, 2))
  }

  test("more rows than columns leaves some rows unmatched") {
    val w = Array(Array(3.0), Array(7.0), Array(5.0))
    val (total, assign) = Matching.maxWeight(w)
    assert(total == 7.0)
    assert(assign.count(_ >= 0) == 1)
    assert(assign(1) == 0)
  }

  test("empty inputs") {
    assert(Matching.maxWeight(Array.empty[Array[Double]])._1 == 0.0)
    val (t, a) = Matching.maxWeight(Array(Array.empty[Double], Array.empty[Double]))
    assert(t == 0.0 && a.toSeq == Seq(-1, -1))
  }

  test("zero matrix has zero weight") {
    val w = Array.fill(3, 4)(0.0)
    assert(Matching.maxWeight(w)._1 == 0.0)
  }

  test("assignment is injective") {
    val w = Array.fill(5, 5)(1.0)
    val (_, assign) = Matching.maxWeight(w)
    val used = assign.filter(_ >= 0)
    assert(used.distinct.length == used.length)
  }

  test("NaN and non-positive entries are never assigned") {
    val w = Array(
      Array(Double.NaN, 0.5, 0.0),
      Array(-1.0, 0.0, Double.NaN),
      Array(0.0, -0.0, -3.0),
    )
    val (total, assign) = Matching.maxWeight(w)
    assert(total == 0.5)
    assert(assign.toSeq == Seq(1, -1, -1))
  }

  test("ties: an all-ones 3x2 leaves the last row unmatched") {
    val (total, assign) = Matching.maxWeight(Array.fill(3, 2)(1.0))
    assert(total == 2.0)
    assert(assign.toSeq == Seq(0, 1, -1))
  }

  test("a 2x17 matrix gets the exact optimum 1.8") {
    val w = Array.fill(2, 17)(0.0)
    w(0)(0) = 1.0; w(0)(1) = 0.9; w(1)(0) = 0.9
    val (total, assign) = Matching.maxWeight(w)
    assert(total == 1.8)
    assert(assign.toSeq == Seq(1, 0))
  }

  // The name dates from the bitmask DP solver; the property checks that
  // maxWeight is a valid matching with the brute-force optimum up to 6x8.
  test("DP matches brute force on random matrices (scalacheck)") {
    check(Prop.forAll(matrixGen) { w =>
      val (t, assign) = Matching.maxWeight(w)
      val used = assign.filter(_ >= 0)
      used.distinct.length == used.length &&
        assign.indices.forall(i => assign(i) < 0 || w(i)(assign(i)) > 0) &&
        math.abs(t - brute(w)) < 1e-9
    })
  }

  test("assignment total equals reported total (scalacheck)") {
    check(Prop.forAll(matrixGen) { w =>
      val (t, assign) = Matching.maxWeight(w)
      var sum = 0.0
      for (i <- assign.indices if assign(i) >= 0) sum += w(i)(assign(i))
      t == sum
    })
  }
}
