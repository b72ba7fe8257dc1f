package perfbench

/** Order statistics used for every reported number. */
object Stats {

  /** Percentile `p` (0-100) by linear interpolation between closest ranks. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s    = xs.sorted
    val rank = p / 100.0 * (s.length - 1)
    val lo   = math.floor(rank).toInt
    val hi   = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (rank - lo)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50.0)

  def ms(fromNs: Long): Double = (System.nanoTime() - fromNs) / 1e6
}
