package repro.core

import repro.vis.AggOp

/** Segment-level dataset encoder (paper Sec. IV-C) with the three
  * DA-related layers of Sec. V folded in:
  *
  *  - base segments: the column z-normalised and split into `p2`-cell
  *    segments (the Sec. IV-C encoder);
  *  - transformation layers: one aggregated view of the column per
  *    distinct operator expert (avg/max/min, see `Experts`) — applying the
  *    operator *is* the transformation the paper's per-operator MLP learns;
  *  - HMRL: each operator is materialised at every binary-tree window size
  *    {4, 8, ..., p2} (`FcmConfig.daWindows`, empty when DA is off),
  *    giving the multi-scale representation;
  *  - the MoE gate consumes these variants inside `Matcher`.
  */
object DatasetEncoder {

  /** Encode one column under `cfg`. */
  def encodeColumn(colIdx: Int, values: Array[Double], cfg: FcmConfig): ColumnEmb = {
    var mn = Double.PositiveInfinity
    var mx = Double.NegativeInfinity
    var sm = 0.0
    var i = 0
    while (i < values.length) {
      val v = values(i)
      if (v < mn) mn = v
      if (v > mx) mx = v
      sm += v
      i += 1
    }
    val z = Features.znorm(values)
    val (segs, pos) = Features.segmentAll(z, cfg.p2)
    val variants =
      for {
        op <- Experts
        w  <- cfg.daWindows(values.length)
      } yield variant(values, op, w, cfg)
    ColumnEmb(colIdx, values.length, mn, mx, sm, segs, pos, variants)
  }

  /** The operators with a DA expert of their own. `sum` has none: every
    * HMRL window is a power of two, so a sum window is exactly `w ×` the
    * avg window, which z-normalisation cancels bit for bit; `sum` charts
    * are served by the avg expert.
    */
  val Experts: Array[AggOp] = Array(AggOp.Avg, AggOp.Max, AggOp.Min)

  /** The DA variant of `values` under operator `op` at window `w`. */
  def variant(values: Array[Double], op: AggOp, w: Int, cfg: FcmConfig): DaVariant = {
    val za = Features.znorm(AggOp.aggregate(values, op, w))
    // Segment the aggregated series so each segment spans the same
    // x-fraction of the column as a base segment does (p2 raw cells
    // aggregate to p2/w points), keeping SL-SAN granularities aligned.
    val (s, p) = Features.segmentAll(za, math.max(2, cfg.p2 / w))
    DaVariant(op.id, w, s, p)
  }

  /** Encode a whole table (all numeric columns). */
  def encodeTable(tableId: Long, cols: Array[Array[Double]], cfg: FcmConfig): TableEmb =
    TableEmb(tableId, cols.zipWithIndex.map { case (c, i) => encodeColumn(i, c, cfg) })
}
