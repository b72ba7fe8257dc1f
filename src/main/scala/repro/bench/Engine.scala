package repro.bench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.baselines.{Cml, DeLn, LineNet, Qetch}
import repro.core._

/** One scored (query, table) pair emitted by a distributed scoring pass. */
final case class Scored(qid: Int, tid: Long, score: Double)

/** A retrieval method as a scan pass runs it: `query` prepares a query on
  * the driver (the result is broadcast), `table` encodes a table inside the
  * executors, and `score` rates one prepared query against one encoded
  * table (higher is better).
  */
final case class Retriever[Q, E](
    query: QueryPack => Q,
    table: BenchTable => E,
    score: (Q, E) => Double
)

/** The six methods of the evaluation: FCM (any variant via `cfg`), the four
  * baselines and the `Rel(D, T)` ground truth.
  */
object Retriever {

  /** FCM: segment-level chart encoding vs table encoding, HCMAN + head. */
  def fcm(cfg: FcmConfig): Retriever[ChartEmb, TableEmb] = Retriever(
    q => ChartEncoder.encode(q.extracted, cfg),
    t => DatasetEncoder.encodeTable(t.id, t.cols, cfg),
    (chart, emb) => Matcher.score(chart, emb, cfg)
  )

  /** CML baseline: global embeddings + cosine. */
  val cml: Retriever[Array[Double], Array[Double]] =
    Retriever(_.cmlVec, t => Cml.tableVec(t.cols), Cml.score)

  /** Qetch* baseline: local sketch matching + bipartite aggregation. */
  val qetch: Retriever[Array[Array[Double]], Array[Array[Array[Double]]]] = Retriever(
    _.extractedLines.map(Qetch.slopeProfile),
    _.cols.map(Qetch.columnProfiles),
    Qetch.scoreProfiles
  )

  /** DE-LN baseline: DeepEye recommends 5 charts per table, LineNet ranks. */
  def deln(chartW: Int, chartH: Int): Retriever[Array[Double], Array[Array[Double]]] =
    Retriever(_.lineNetVec, t => DeLn.candidateVecs(t.cols, chartW, chartH), DeLn.score)

  /** Opt-LN upper bound: LineNet on the chart from the associated spec. */
  def optLn(chartW: Int, chartH: Int): Retriever[Array[Double], Array[Double]] =
    Retriever(_.lineNetVec, t => DeLn.optVec(t.cols, t.specCols, chartW, chartH), LineNet.sim)

  /** Ground-truth `Rel(D, T)` (banded DTW + bipartite matching). */
  val gt: Retriever[Array[Array[Double]], Array[Array[Double]]] =
    Retriever(_.underlyingPrepared, _.cols.map(Relevance.prep), Relevance.relPrepared)
}

/** Distributed scan + similarity-match dataflow (DESIGN.md §3).
  *
  * The repository is a cached `Dataset[BenchTable]`; every retrieval method
  * runs through `rank`, a `mapPartitions` pass that encodes each table
  * inside the executors and scores it against the broadcast query
  * representations, emitting `(qid, tid, score)` rows that are collected
  * and ranked per query on the driver. Index strategies restrict a pass
  * through a broadcast candidate map.
  */
object Engine {

  /** Run one scoring pass; returns per-query rankings (best first, ties by
    * table id) and the wall-clock milliseconds of the distributed job.
    */
  def pass(
      spark: SparkSession,
      tables: Dataset[BenchTable],
      f: BenchTable => Iterator[Scored]
  ): (Map[Int, Array[Long]], Long) = {
    val sp = spark
    import sp.implicits._
    val t0   = System.nanoTime()
    val rows = tables.mapPartitions(_.flatMap(f)).collect()
    val ms   = (System.nanoTime() - t0) / 1000000L
    val ranked = rows
      .groupBy(_.qid)
      .map { case (q, arr) =>
        q -> arr.sortBy(s => (-s.score, s.tid)).map(_.tid)
      }
    (ranked, ms)
  }

  private def allowed(restrict: Map[Int, Set[Long]], qid: Int, tid: Long): Boolean =
    restrict.isEmpty || restrict.get(qid).forall(_.contains(tid))

  /** Rank the tables for every query with `retriever`. A query listed in
    * `restrict` scores only its candidate tables; a table that no query
    * may score is never encoded.
    */
  def rank[Q, E](
      spark: SparkSession,
      tables: Dataset[BenchTable],
      queries: Array[QueryPack],
      retriever: Retriever[Q, E],
      restrict: Map[Int, Set[Long]] = Map.empty
  ): (Map[Int, Array[Long]], Long) = {
    val bq = spark.sparkContext.broadcast(queries.map(q => (q.qid, retriever.query(q))))
    val br = spark.sparkContext.broadcast(restrict)
    pass(
      spark,
      tables,
      t => {
        val wanted = bq.value.filter { case (qid, _) => allowed(br.value, qid, t.id) }
        if (wanted.isEmpty) Iterator.empty
        else {
          val enc = retriever.table(t)
          wanted.iterator.map { case (qid, q) => Scored(qid, t.id, retriever.score(q, enc)) }
        }
      }
    )
  }

  /** `rank` with `Retriever.fcm(cfg)`. */
  def fcmRank(
      spark: SparkSession,
      tables: Dataset[BenchTable],
      queries: Array[QueryPack],
      cfg: FcmConfig,
      restrict: Map[Int, Set[Long]] = Map.empty
  ): (Map[Int, Array[Long]], Long) = rank(spark, tables, queries, Retriever.fcm(cfg), restrict)

  /** `rank` with `Retriever.gt`. */
  def gtRank(
      spark: SparkSession,
      tables: Dataset[BenchTable],
      queries: Array[QueryPack]
  ): (Map[Int, Array[Long]], Long) = rank(spark, tables, queries, Retriever.gt)
}
