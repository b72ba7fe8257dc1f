package perfbench

import repro.bench.{Bench, BenchConfig, BenchTable, QueryPack}
import repro.vis.{AggOp, ChartImage, ChartSpec, Raster}

import scala.util.Random

/** Seeded inputs of each workload. Sizes are chosen so that one run
  * (start-up, input generation, three set-ups, warm-up, a 12 s timed loop
  * and the output checks) ends within about 40 s on 4 cores.
  */
object Inputs {

  /** `BenchData.generate` scale of each workload; `seed` is the run's seed.
    * `nRepoBase` sizes the pool `balanced` picks base tables from.
    */
  def config(workload: String, seed: Long): BenchConfig = workload match {
    // 8 charts (M = 1, 2, 5, 8, each plain and DA) at the paper's 960 px.
    case "scan" =>
      BenchConfig(nRepoBase = 112, nTrain = 24, nQueryTables = 4, noisePerQuery = 2, k = 10,
        queryRows = 1024, sweepTables = 0, sweepWindows = Seq(5), seed = seed,
        chartW = 960, chartH = 240, tpchSf = 0.002)
    // 100 distinct charts (Table I M-mix, half DA) at the unit scale's
    // 480 px / 512 rows, so that each query is one short pass.
    case "search" =>
      BenchConfig(nRepoBase = 112, nTrain = 24, nQueryTables = 50, noisePerQuery = 1, k = 10,
        queryRows = 512, sweepTables = 0, sweepWindows = Seq(5), seed = seed,
        chartW = 480, chartH = 160, tpchSf = 0.002)
    // 32 charts (Table I M-mix, half DA).
    case "ground-truth" =>
      BenchConfig(nRepoBase = 112, nTrain = 24, nQueryTables = 16, noisePerQuery = 2, k = 10,
        queryRows = 1024, sweepTables = 0, sweepWindows = Seq(5), seed = seed,
        chartW = 960, chartH = 240, tpchSf = 0.002)
    case other => throw new IllegalArgumentException(s"unknown workload '$other'")
  }

  /** Base tables kept per run: one per (rows, columns) shape cell. */
  val BaseTables = 28

  /** The workload's repository: every query table and noise copy, plus
    * `BaseTables` of the generated base tables picked round-robin over
    * (rows, columns) shape cells in seeded order, kept in generated order.
    * Scoring cost follows table shape, so balancing shapes keeps a run's cost
    * nearly the same for every seed while the values still change with it.
    */
  def balanced(b: Bench, rng: Random): Bench = {
    val sources      = b.queries.map(_.sourceTable).toSet
    val (base, rest) = b.repo.partition(t => t.parent < 0 && !sources.contains(t.id))
    val cells = base.groupBy(t => (t.cols.head.length, t.cols.length)).toSeq.sortBy(_._1).map {
      case (_, ts) => rng.shuffle(ts.toSeq)
    }
    val rounds = cells.map(_.length).max
    val picked = (0 until rounds).iterator.flatMap(i => cells.flatMap(_.lift(i))).take(BaseTables).toSet
    b.copy(repo = b.repo.filter(t => picked.contains(t) || rest.contains(t)))
  }

  /** The chart spec a query was rendered from. */
  def spec(q: QueryPack, source: BenchTable): ChartSpec =
    ChartSpec(source.specCols.toVector, if (q.isDa) Some((AggOp.byId(q.opId), q.window)) else None)

  /** Re-render a query's chart image exactly as `BenchData.makeQuery` did. */
  def image(q: QueryPack, b: Bench, byId: Map[Long, BenchTable]): ChartImage = {
    val src = byId(q.sourceTable)
    Raster.render(ChartSpec.underlying(src.cols, spec(q, src)), b.cfg.chartW, b.cfg.chartH)
  }

  /** Seeded query order in which every prefix keeps the pool's mix of
    * line counts M: the queries of each M are shuffled, the i-th of n gets
    * key (i + 0.5) / n, and queries are served by key.
    */
  def stratified(qs: Seq[QueryPack], rng: Random): Seq[QueryPack] =
    qs.groupBy(_.m).toSeq.sortBy(_._1).flatMap { case (_, g) =>
      rng.shuffle(g).zipWithIndex.map { case (q, i) => ((i + 0.5) / g.length, q) }
    }.sortBy { case (key, q) => (key, q.m) }.map(_._2)

  /** Planted relevance: the query's source table and its noise copies. */
  def planted(q: QueryPack, repo: Seq[BenchTable]): Set[Long] =
    repo.filter(t => t.id == q.sourceTable || t.parent == q.sourceTable).map(_.id).toSet
}
