package repro.core

/** Segment-level feature vectors shared by the chart and dataset encoders.
  *
  * The paper embeds each line segment / data segment with a transformer;
  * here each segment of a z-normalised series is described by six
  * deterministic statistics (DESIGN.md §2). The descriptors preserve the
  * locality structure that the segment sizes P1/P2 control, which is what
  * the paper's segment-level design (and its Table V/VII experiments) rely
  * on.
  */
object Features {

  /** Number of points of the per-segment resampled shape descriptor. */
  val ShapePts = 8

  /** Feature dimensionality: six statistics (mean, std, min, max, net
    * change, mean |step|) plus the segment's shape resampled to ShapePts.
    */
  val Dim = 6 + ShapePts

  /** Relative weight of each feature inside the similarity kernel. */
  private val W: Array[Double] =
    Array(1.0, 0.8, 0.7, 0.7, 1.0, 0.9) ++ Array.fill(ShapePts)(0.8)
  private val WSum: Double = W.sum

  /** z-normalise a series (zero mean, unit variance; flat series map to 0).
    * "Flat" is relative to the series' magnitude (`sd <= 1e-12 · max|x|`),
    * so a constant column of any size maps to 0 rather than to its own
    * rounding noise, and scaling the input by a power of two leaves the
    * output bit-identical.
    */
  def znorm(xs: Array[Double]): Array[Double] = {
    val n = xs.length
    if (n == 0) return xs
    var s = 0.0; var mag = 0.0; var i = 0
    while (i < n) { s += xs(i); mag = math.max(mag, math.abs(xs(i))); i += 1 }
    val mean = s / n
    var v = 0.0; i = 0
    while (i < n) { val d = xs(i) - mean; v += d * d; i += 1 }
    val sd = math.sqrt(v / n)
    if (sd <= 1e-12 * mag) Array.fill(n)(0.0)
    else {
      val out = new Array[Double](n)
      i = 0
      while (i < n) { out(i) = (xs(i) - mean) / sd; i += 1 }
      out
    }
  }

  /** Feature vector of `xs[from, until)`. Callers guarantee until > from. */
  def segFeatures(xs: Array[Double], from: Int, until: Int): Array[Double] = {
    val n = until - from
    var s = 0.0; var mn = Double.PositiveInfinity; var mx = Double.NegativeInfinity
    var i = from
    while (i < until) {
      val x = xs(i)
      s += x
      if (x < mn) mn = x
      if (x > mx) mx = x
      i += 1
    }
    val mean = s / n
    var v = 0.0; var steps = 0.0
    i = from
    while (i < until) {
      val d = xs(i) - mean
      v += d * d
      if (i > from) steps += math.abs(xs(i) - xs(i - 1))
      i += 1
    }
    val std = math.sqrt(v / n)
    val net = xs(until - 1) - xs(from)
    val mas = if (n > 1) steps / (n - 1) else 0.0
    val out = new Array[Double](Dim)
    out(0) = mean; out(1) = std; out(2) = mn; out(3) = mx; out(4) = net; out(5) = mas
    // per-segment shape, resampled to ShapePts points (series-level z-units)
    var k = 0
    while (k < ShapePts) {
      val t  = if (ShapePts == 1) 0.0 else k.toDouble * (n - 1) / (ShapePts - 1)
      val lo = t.toInt
      val hi = math.min(n - 1, lo + 1)
      val fr = t - lo
      out(6 + k) = xs(from + lo) * (1 - fr) + xs(from + hi) * fr
      k += 1
    }
    out
  }

  /** Tumbling segmentation: features + normalised centre positions for each
    * segment of `segLen` points. A trailing partial segment is kept when it
    * is the only segment or is at least half-length; single-point tails are
    * dropped.
    */
  def segmentAll(xs: Array[Double], segLen: Int): (Array[Array[Double]], Array[Double]) = {
    val n = xs.length
    if (n == 0) return (Array.empty, Array.empty)
    val feats = Array.newBuilder[Array[Double]]
    val pos   = Array.newBuilder[Double]
    var start = 0
    while (start < n) {
      val end = math.min(n, start + segLen)
      val len = end - start
      val keep = (start == 0) || len >= math.max(2, segLen / 2)
      if (keep && len >= 1) {
        feats += segFeatures(xs, start, end)
        pos += (start + len / 2.0) / n
      }
      start += segLen
    }
    (feats.result(), pos.result())
  }

  /** Elementwise mean over segment features (pooled representation). */
  def pool(segs: Array[Array[Double]]): Array[Double] = {
    if (segs.isEmpty) return Array.fill(Dim)(0.0)
    val out = new Array[Double](segs(0).length)
    var i = 0
    while (i < segs.length) {
      var j = 0
      while (j < out.length) { out(j) += segs(i)(j); j += 1 }
      i += 1
    }
    var j = 0
    while (j < out.length) { out(j) /= segs.length; j += 1 }
    out
  }

  /** Gaussian-ish similarity kernel in z-units; `tau` is the bandwidth.
    * Returns a score in (0, 1], 1 for identical features.
    */
  def sim(a: Array[Double], b: Array[Double], tau: Double): Double = {
    var d = 0.0
    var j = 0
    while (j < a.length) {
      val x = a(j) - b(j)
      d += W(j % W.length) * x * x
      j += 1
    }
    math.exp(-math.sqrt(d / WSum) / tau)
  }

  /** Cosine similarity; zero vectors map to 0. */
  def cosine(a: Array[Double], b: Array[Double]): Double = {
    var dot = 0.0; var na = 0.0; var nb = 0.0
    var i = 0
    val n = math.min(a.length, b.length)
    while (i < n) { dot += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i); i += 1 }
    if (na < 1e-18 || nb < 1e-18) 0.0 else dot / math.sqrt(na * nb)
  }

  /** Linear resample of `xs` to exactly `len` points. */
  def resample(xs: Array[Double], len: Int): Array[Double] = {
    val n = xs.length
    if (n == 0) return Array.fill(len)(0.0)
    if (n == 1) return Array.fill(len)(xs(0))
    Array.tabulate(len) { i =>
      val t  = i.toDouble * (n - 1) / math.max(1, len - 1)
      val lo = t.toInt
      val hi = math.min(n - 1, lo + 1)
      val f  = t - lo
      xs(lo) * (1 - f) + xs(hi) * f
    }
  }
}
