package repro.bench

/** Plain-text rendering of each paper table, shared by the spark-submit
  * jobs and the bench suites.
  */
object Report {

  private def fmt(d: Double): String = f"$d%.3f"

  /** Table I: counts per line-count bucket, plus the total. */
  def renderTableI(rows: Seq[(String, Map[String, Int])]): String = {
    val header = "%-12s%-8s".format("", "Overall") + BenchData.mBuckets.map(b => "%-8s".format(b)).mkString
    val body = rows.map { case (who, counts) =>
      "%-12s%-8d".format(who, counts.values.sum) + BenchData.mBuckets.map(b => "%-8d".format(counts(b))).mkString
    }
    (header +: body).mkString("\n")
  }

  /** Tables II, III, V and VI: a prec row and an ndcg row per query group,
    * one column per method.
    */
  def renderMethodTable(rows: Seq[(String, Seq[MethodMetrics])]): String = {
    val names  = rows.head._2.map(_.method)
    val header = "%-14s".format("") + names.map(n => "%-10s".format(n)).mkString
    val body = rows.flatMap { case (label, ms) =>
      val p = "%-14s".format(s"$label p") + ms.map(m => "%-10s".format(fmt(m.prec))).mkString
      val n = "%-14s".format(s"$label n") + ms.map(m => "%-10s".format(fmt(m.ndcg))).mkString
      Seq(p, n)
    }
    (header +: body).mkString("\n")
  }

  /** Table IV: prec per operator (rows) and window bucket (columns). */
  def renderTableIV(t: Map[(String, String), Double]): String = {
    val buckets = Seq("0-10", "20-40", "40-60", "60-80", "80-100")
    val header  = "%-6s".format("") + buckets.map(b => "%-10s".format(b)).mkString
    val body = Seq("min", "max", "sum", "avg").map { op =>
      "%-6s".format(op) + buckets.map(b => "%-10s".format(t.get((op, b)).map(fmt).getOrElse("-"))).mkString
    }
    (header +: body).mkString("\n")
  }

  /** Table VII: prec per P1 (rows) and P2 (columns). */
  def renderTableVII(grid: Map[(Int, Int), Double]): String = {
    val p1s    = grid.keys.map(_._1).toSeq.distinct.sorted
    val p2s    = grid.keys.map(_._2).toSeq.distinct.sorted
    val header = "%-8s".format("P1\\P2") + p2s.map(p => "%-10d".format(p)).mkString
    val body = p1s.map { p1 =>
      "%-8d".format(p1) + p2s.map(p2 => "%-10s".format(fmt(grid((p1, p2))))).mkString
    }
    (header +: body).mkString("\n")
  }

  /** Table VIII: one row per index strategy. */
  def renderTableVIII(rows: Seq[IndexRow]): String = {
    val header = "%-16s%-10s%-10s%-12s%-14s".format("Strategy", "prec", "ndcg", "query ms", "avg cands")
    val body = rows.map { r =>
      "%-16s%-10s%-10s%-12d%-14.1f".format(r.strategy, fmt(r.prec), fmt(r.ndcg), r.timeMs, r.avgCandidates)
    }
    (header +: body).mkString("\n")
  }

  /** Table IX: prec and ndcg per number of negatives. */
  def renderTableIX(rows: Seq[(Int, Double, Double)]): String = Seq(
    "%-8s".format("N-") + rows.map(r => "%-8d".format(r._1)).mkString,
    "%-8s".format("prec") + rows.map(r => "%-8s".format(fmt(r._2))).mkString,
    "%-8s".format("ndcg") + rows.map(r => "%-8s".format(fmt(r._3))).mkString
  ).mkString("\n")
}
