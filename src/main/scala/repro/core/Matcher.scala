package repro.core

/** Cross-modal matcher (paper Sec. IV-D) — the HCMAN substitute.
  *
  * Two matching levels, as in the paper:
  *  - SL-SAN (segment level): soft-attention alignment between line
  *    segments and data segments with a positional prior, producing a
  *    5-dim pair feature vector per (line, column-variant);
  *  - MoE gate (Sec. V-D): a sparse top-1 gate over the identity expert
  *    and the DA variants (one per operator expert, avg/max/min, and HMRL
  *    scale); the best variant replaces the identity expert's pair
  *    features only if its pre-score beats the identity's by `GateMargin`;
  *  - LL-SAN (line-to-column level): attention plus exact bipartite
  *    assignment over the pair scores, producing a 6-dim chart-level
  *    feature vector;
  *  - head: a trained logistic unit maps features to `Rel'(V, T)` — the
  *    paper's final MLP.
  *
  * The FCM-HCMAN ablation (Table V) replaces all of it with pooled-vector
  * similarity, exactly as Sec. VII-D describes.
  */
object Matcher {

  /** Fixed combiner turning a 5-dim pair feature vector into a scalar pair
    * score used by the LL-SAN attention and the bipartite assignment.
    */
  private val PairCombiner = Array(0.35, 0.25, 0.20, 0.10, 0.10)

  val PairFeatDim = 5

  def sigmoid(x: Double): Double = 1.0 / (1.0 + math.exp(-x))

  /** SL-SAN: segment-level soft alignment between one line and one column
    * variant. Features (all in [0,1]):
    *   0 soft-attention alignment quality (query=line segments)
    *   1 mean best-match similarity per line segment
    *   2 coverage: mean best-match similarity per data segment
    *   3 positional consistency of the best matches
    *   4 global (pooled) similarity
    */
  def pairFeatures(
      lSegs: Array[Array[Double]],
      lPos: Array[Double],
      cSegs: Array[Array[Double]],
      cPos: Array[Double],
      cfg: FcmConfig
  ): Array[Double] = {
    val nl = lSegs.length
    val nc = cSegs.length
    if (nl == 0 || nc == 0) return Array.fill(PairFeatDim)(0.0)
    val s = Array.ofDim[Double](nl, nc)
    var j = 0
    while (j < nl) {
      var n = 0
      while (n < nc) {
        s(j)(n) = Features.sim(lSegs(j), cSegs(n), cfg.tau)
        n += 1
      }
      j += 1
    }
    var softAlign = 0.0
    var bestMean  = 0.0
    var posDev    = 0.0
    j = 0
    while (j < nl) {
      // attention logits: similarity biased towards positionally close segments
      var zMax = Double.NegativeInfinity
      var n = 0
      while (n < nc) {
        val z = cfg.attnKappa * s(j)(n) - 3.0 * math.abs(lPos(j) - cPos(n))
        if (z > zMax) zMax = z
        n += 1
      }
      var den = 0.0
      var num = 0.0
      var best = 0.0
      var bestN = 0
      n = 0
      while (n < nc) {
        val z = cfg.attnKappa * s(j)(n) - 3.0 * math.abs(lPos(j) - cPos(n))
        val e = math.exp(z - zMax)
        den += e
        num += e * s(j)(n)
        if (s(j)(n) > best) { best = s(j)(n); bestN = n }
        n += 1
      }
      softAlign += num / den
      bestMean += best
      posDev += math.abs(lPos(j) - cPos(bestN))
      j += 1
    }
    softAlign /= nl
    bestMean /= nl
    val posCons = math.max(0.0, 1.0 - 2.0 * posDev / nl)
    var coverage = 0.0
    var n = 0
    while (n < nc) {
      var best = 0.0
      j = 0
      while (j < nl) { if (s(j)(n) > best) best = s(j)(n); j += 1 }
      coverage += best
      n += 1
    }
    coverage /= nc
    val globalSim = Features.sim(Features.pool(lSegs), Features.pool(cSegs), cfg.tau)
    Array(softAlign, bestMean, coverage, posCons, globalSim)
  }

  /** Scalar pre-score of a pair feature vector (used for gating/attention). */
  def preScore(f: Array[Double]): Double = {
    var s = 0.0
    var wSum = 0.0
    var i = 0
    while (i < f.length) { s += PairCombiner(i) * f(i); wSum += PairCombiner(i); i += 1 }
    if (wSum > 0) s / wSum else 0.0
  }

  /** Margin by which an aggregation expert must beat the identity expert
    * before the gate hands the pair to it. The sparse gate keeps plain
    * (non-DA) scoring identical to the DA-free model — "best of many
    * variants" would otherwise inflate weak matches on unrelated tables.
    */
  val GateMargin = 0.02

  /** Sparse (top-1) Mixture-of-Experts over the identity expert and the
    * column's DA variants — the avg/max/min transformation experts, each
    * taken at its best HMRL scale — the sparsely-gated MoE of the paper's
    * citation [35]. A `sum` chart is matched by the avg expert (see
    * `DatasetEncoder.Experts`), so the inferred operator is never 2. Ties
    * keep the earlier variant (strict `>`). A column encoded without DA
    * has no variants and gets the identity expert. Returns the winning
    * expert's pair features and the id of the inferred operator
    * (0 = identity).
    */
  def daPairFeatures(
      line: LineEmb,
      col: ColumnEmb,
      cfg: FcmConfig
  ): (Array[Double], Int) = {
    val identity = pairFeatures(line.segs, line.pos, col.segs, col.pos, cfg)
    if (col.variants.isEmpty) return (identity, 0)

    val idScore = preScore(identity)
    var bestOp = 0
    var bestFeat = identity
    var bestScore = Double.NegativeInfinity
    var i = 0
    while (i < col.variants.length) {
      val v = col.variants(i)
      val f = pairFeatures(line.segs, line.pos, v.segs, v.pos, cfg)
      val u = preScore(f)
      if (u > bestScore) { bestScore = u; bestFeat = f; bestOp = v.op }
      i += 1
    }
    if (bestScore > idScore + GateMargin) (bestFeat, bestOp) else (identity, 0)
  }

  /** Fraction of the chart's y-range covered by the column's feasible
    * interval. With DA enabled the interval is the paper's index interval
    * [min(C), sum(C)] extended to negatives; without DA it is [min, max].
    */
  def rangeOverlap(chart: ChartEmb, col: ColumnEmb, useDa: Boolean): Double = {
    val lo = if (useDa) math.min(col.min, math.min(col.sum, 0.0)) else col.min
    val hi = if (useDa) math.max(col.max, math.max(col.sum, 0.0)) else col.max
    val span = math.max(chart.yHi - chart.yLo, 1e-9)
    val inter = math.min(chart.yHi, hi) - math.max(chart.yLo, lo)
    math.max(0.0, math.min(1.0, inter / span))
  }

  /** LL-SAN + chart-level feature assembly (6 dims, HCMAN variant). */
  def tableFeatures(chart: ChartEmb, tab: TableEmb, cfg: FcmConfig): Array[Double] = {
    val m  = chart.m
    val nc = tab.cols.length
    if (m == 0 || nc == 0) return Array.fill(cfg.featureDim)(0.0)
    val u     = Array.ofDim[Double](m, nc)
    val align = Array.ofDim[Double](m, nc)
    var i = 0
    while (i < m) {
      var c = 0
      while (c < nc) {
        val (f, _) = daPairFeatures(chart.lines(i), tab.cols(c), cfg)
        u(i)(c) = preScore(f)
        align(i)(c) = f(0)
        c += 1
      }
      i += 1
    }
    val (matchW, assign) = Matching.maxWeight(u)
    val b1 = matchW / m
    var b2 = 0.0
    var b3 = 0.0
    i = 0
    while (i < m) {
      var best = 0.0
      var zMax = Double.NegativeInfinity
      var c = 0
      while (c < nc) {
        if (u(i)(c) > best) best = u(i)(c)
        if (cfg.attnKappa * u(i)(c) > zMax) zMax = cfg.attnKappa * u(i)(c)
        c += 1
      }
      var den = 0.0
      var num = 0.0
      c = 0
      while (c < nc) {
        val e = math.exp(cfg.attnKappa * u(i)(c) - zMax)
        den += e
        num += e * u(i)(c)
        c += 1
      }
      b2 += best
      b3 += num / den
      i += 1
    }
    b2 /= m
    b3 /= m
    var b4 = 0.0
    var c = 0
    while (c < nc) {
      val ov = rangeOverlap(chart, tab.cols(c), cfg.useDa)
      if (ov > b4) b4 = ov
      c += 1
    }
    var matched = 0
    var alignSum = 0.0
    i = 0
    while (i < m) {
      if (assign(i) >= 0 && u(i)(assign(i)) > 0.25) matched += 1
      if (assign(i) >= 0) alignSum += align(i)(assign(i))
      i += 1
    }
    val b5 = matched.toDouble / m
    val b6 = alignSum / m
    Array(b1, b2, b3, b4, b5, b6)
  }

  /** FCM-HCMAN ablation features (3 dims): pooled representations compared
    * coarsely, exactly as the Table V variant describes.
    */
  def hcmanOffFeatures(chart: ChartEmb, tab: TableEmb, cfg: FcmConfig): Array[Double] = {
    if (chart.m == 0 || tab.cols.isEmpty) return Array.fill(cfg.featureDim)(0.0)
    val chartPool = Features.pool(chart.lines.map(_.pooled))
    val tabPool   = Features.pool(tab.cols.map(_.pooled))
    var b4 = 0.0
    tab.cols.foreach { colEmb =>
      val ov = rangeOverlap(chart, colEmb, cfg.useDa)
      if (ov > b4) b4 = ov
    }
    Array(Features.sim(chartPool, tabPool, cfg.tau), Features.cosine(chartPool, tabPool), b4)
  }

  /** Chart-table feature vector of the configured variant. */
  def features(chart: ChartEmb, tab: TableEmb, cfg: FcmConfig): Array[Double] =
    if (cfg.useHcman) tableFeatures(chart, tab, cfg) else hcmanOffFeatures(chart, tab, cfg)

  /** The head's logit `w(0) + Σ w(i+1)·x(i)` (bias first), summed in index
    * order; training and scoring share it so trained weights reproduce.
    */
  def logit(w: Array[Double], x: Array[Double]): Double = {
    var z = w(0)
    var i = 0
    while (i < x.length) { z += w(i + 1) * x(i); i += 1 }
    z
  }

  /** The relevance estimate `Rel'(V, T)` of this FCM variant. */
  def score(chart: ChartEmb, tab: TableEmb, cfg: FcmConfig): Double =
    sigmoid(logit(cfg.headWeights, features(chart, tab, cfg)))
}
