package repro.core

/** Maximum-weight bipartite matching (paper Sec. III-A, high-level
  * relevance): each chart data series is matched to at most one distinct
  * column so that the summed edge weight is maximised.
  *
  * One exact solver for every size: the shortest-augmenting-path Hungarian
  * method (Kuhn 1955; Jonker & Volgenant, Computing 38, 1987), minimising
  * cost `-w` on edges and 0 elsewhere. The matrix is padded with zero-cost
  * dummy columns to a square of side `n = max(rows, cols)`; a row that ends
  * on a dummy column or a non-edge is unmatched at weight 0. The square's
  * extra rows would be all zero, so they are never inserted. Time is
  * O(rows · n²), memory O(n).
  *
  * Weights are finite or NaN. An entry that is ≤ 0 or NaN is a non-edge:
  * it is never assigned and never adds to the total.
  *
  * Tie rule: rows join in index order, each along a shortest augmenting
  * path in reduced costs, and every tie in that search goes to the lowest
  * column index, real columns before dummies. So an all-ones 3×2 matches
  * rows 0 and 1 to columns 0 and 1 and leaves row 2 unmatched. `Matcher`
  * features b5/b6 read the assignment, so this rule is part of the
  * contract. The potentials carry rounding, so two assignments whose totals
  * differ by a few ulps (near-duplicate columns) also count as tied, and
  * either may be returned.
  */
object Matching {

  /** Returns (total weight, assignment) where `assignment(i)` is the column
    * matched to row `i` or -1 if the row is left unmatched. Rows may stay
    * unmatched at weight 0 (more lines than columns is legal input). The
    * total is the sum of the assigned weights in row order.
    */
  def maxWeight(w: Array[Array[Double]]): (Double, Array[Int]) = {
    val nR = w.length
    val nC = if (nR == 0) 0 else w(0).length
    val n  = math.max(nR, nC)
    // 1-based: u/v are the row/column potentials, colRow(j) is the row on
    // column j (0 = free), and column 0 is the start of each row's search.
    val u      = new Array[Double](nR + 1)
    val v      = new Array[Double](n + 1)
    val colRow = new Array[Int](n + 1)
    val way    = new Array[Int](n + 1)
    val minv   = new Array[Double](n + 1)
    val used   = new Array[Boolean](n + 1)
    var r = 1
    while (r <= nR) {
      colRow(0) = r
      java.util.Arrays.fill(minv, Double.PositiveInfinity)
      java.util.Arrays.fill(used, false)
      var j0 = 0
      while (colRow(j0) != 0) {
        used(j0) = true
        val i0  = colRow(j0)
        val row = w(i0 - 1)
        var delta = Double.PositiveInfinity
        var j1 = 0
        var j = 1
        while (j <= n) {
          if (!used(j)) {
            val x   = if (j <= nC) row(j - 1) else 0.0
            val cur = (if (x > 0) -x else 0.0) - u(i0) - v(j)
            if (cur < minv(j)) { minv(j) = cur; way(j) = j0 }
            if (minv(j) < delta) { delta = minv(j); j1 = j }
          }
          j += 1
        }
        j = 0
        while (j <= n) {
          if (used(j)) { u(colRow(j)) += delta; v(j) -= delta } else minv(j) -= delta
          j += 1
        }
        j0 = j1
      }
      while (j0 != 0) { val prev = way(j0); colRow(j0) = colRow(prev); j0 = prev }
      r += 1
    }
    val assign = Array.fill(nR)(-1)
    var j = 1
    while (j <= nC) {
      val i = colRow(j) - 1
      if (i >= 0 && w(i)(j - 1) > 0) assign(i) = j - 1
      j += 1
    }
    var total = 0.0
    var i = 0
    while (i < nR) {
      if (assign(i) >= 0) total += w(i)(assign(i))
      i += 1
    }
    (total, assign)
  }
}
