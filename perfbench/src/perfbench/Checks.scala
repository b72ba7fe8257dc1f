package perfbench

import repro.bench.{BenchTable, QueryPack}
import repro.core.{ChartEmb, DatasetEncoder, FcmConfig, Matcher, Relevance}

import scala.collection.parallel.CollectionConverters._

/** Output checks. A pass must return, per query, a full ranking of exactly
  * the tables it was allowed to score; on a seeded sample of queries its
  * top-k must equal a brute-force recomputation on the driver, with every
  * score finite and ties broken by table id.
  */
object Checks {

  /** Queries per run whose top-k is recomputed by brute force. */
  val Sampled = 2

  def shapeOk(ranking: Option[Array[Long]], allowed: Set[Long]): Boolean =
    ranking match {
      case None    => allowed.isEmpty
      case Some(r) => r.length == allowed.size && r.distinct.length == r.length && r.forall(allowed.contains)
    }

  /** Top-k of `score` over `tables`, best first, ties by table id; None if
    * any score is not finite.
    */
  def bruteTopK(tables: Seq[BenchTable], k: Int)(score: BenchTable => Double): Option[Array[Long]] = {
    val scored = tables.par.map(t => (t.id, score(t))).seq
    if (scored.exists { case (_, s) => s.isNaN || s.isInfinite }) None
    else Some(scored.sortBy { case (id, s) => (-s, id) }.take(k).map(_._1).toArray)
  }

  def fcmScore(chart: ChartEmb, cfg: FcmConfig)(t: BenchTable): Double =
    Matcher.score(chart, DatasetEncoder.encodeTable(t.id, t.cols, cfg), cfg)

  def gtScore(q: QueryPack)(t: BenchTable): Double =
    Relevance.relPrepared(q.underlyingPrepared, t.cols.map(Relevance.prep))

  def topKOk(ranking: Option[Array[Long]], brute: Option[Array[Long]], k: Int): Boolean =
    (ranking, brute) match {
      case (Some(r), Some(b)) => r.take(k).sameElements(b)
      case (None, Some(b))    => b.isEmpty
      case _                  => false
    }
}
