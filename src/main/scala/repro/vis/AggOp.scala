package repro.vis

/** Data aggregation operators used when generating a line chart from a
  * column (paper Sec. II): avg, sum, max, min over tumbling windows.
  * Operator id 0 is reserved for the identity (no aggregation) "expert" in
  * the Mixture-of-Experts layer; the four real operators are 1..4.
  */
sealed abstract class AggOp(val id: Int, val name: String) extends Serializable {
  def reduce(xs: Array[Double], from: Int, until: Int): Double
}

object AggOp {
  case object Avg extends AggOp(1, "avg") {
    def reduce(xs: Array[Double], from: Int, until: Int): Double =
      Sum.reduce(xs, from, until) / (until - from)
  }
  case object Sum extends AggOp(2, "sum") {
    def reduce(xs: Array[Double], from: Int, until: Int): Double = {
      var s = 0.0; var i = from
      while (i < until) { s += xs(i); i += 1 }
      s
    }
  }
  case object Max extends AggOp(3, "max") {
    def reduce(xs: Array[Double], from: Int, until: Int): Double = {
      var s = Double.NegativeInfinity; var i = from
      while (i < until) { if (xs(i) > s) s = xs(i); i += 1 }
      s
    }
  }
  case object Min extends AggOp(4, "min") {
    def reduce(xs: Array[Double], from: Int, until: Int): Double = {
      var s = Double.PositiveInfinity; var i = from
      while (i < until) { if (xs(i) < s) s = xs(i); i += 1 }
      s
    }
  }

  /** The four chart aggregation operators, in id order. */
  val all: Array[AggOp] = Array(Avg, Sum, Max, Min)

  def byId(id: Int): AggOp = all(id - 1)

  /** Tumbling-window aggregation of a column; a trailing partial window is
    * dropped (standard chart-tool behaviour for incomplete buckets).
    */
  def aggregate(xs: Array[Double], op: AggOp, window: Int): Array[Double] = {
    require(window >= 1, s"window must be >= 1, got $window")
    if (window == 1) return xs.clone()
    val n   = xs.length / window
    val out = new Array[Double](n)
    var i = 0
    while (i < n) {
      out(i) = op.reduce(xs, i * window, (i + 1) * window)
      i += 1
    }
    out
  }
}
