package repro.core

import repro.order.VertexOrder

/** A 2-hop Exact-Shortest-Path-Covering label index.
  *
  * For each vertex `v`, `hubs(v)(i) / dists(v)(i) / cnts(v)(i)` hold the
  * entry `(w, dis(v,w), c)` where `c` is the number of trough shortest
  * paths from `v` to `w` (DESIGN.md §2). The hub `w` is stored as its rank
  * under `order`, and each list is strictly ascending in rank (highest rank
  * first), so two lists intersect by a merge on the stored ints. The
  * constructor checks this in one linear pass; `labelOf` and `canonical`
  * map the ranks back to vertex ids.
  *
  * @param order   the total order the index was built under (`order(rank) = v`)
  * @param weights vertex weights of the graph the index was built on, or
  *                `null` when every weight is 1
  * @throws IllegalArgumentException if `order` is not a permutation of
  *         `0 until n`, `dists` or `cnts` does not hold `n` lists, a
  *         vertex's `dists` or `cnts` list is not as long as its hub list,
  *         or a list holds a rank outside `0 until n`, out of order or twice
  */
final class LabelIndex(
    val order: Array[Int],
    val hubs: Array[Array[Int]],
    val dists: Array[Array[Int]],
    val cnts: Array[Array[Long]],
    weights: Array[Long] = null,
) extends Serializable {

  val n: Int = hubs.length
  val rank: Array[Int] = VertexOrder.rankOf(order, n)
  /** The vertex weights, or `null` when every weight is 1, so queries skip the lookup. */
  val weight: Array[Long] = if (weights == null || weights.forall(_ == 1L)) null else weights

  {
    require(dists.length == n && cnts.length == n,
      s"${dists.length} distance lists and ${cnts.length} count lists for $n vertices")
    var v = 0
    while (v < n) {
      val h = hubs(v)
      require(dists(v).length == h.length && cnts(v).length == h.length,
        s"label list of vertex $v has ${h.length} hubs, ${dists(v).length} distances and ${cnts(v).length} counts")
      var i = 0
      while (i < h.length) {
        val r = h(i)
        if (r < 0 || r >= n || (i > 0 && r <= h(i - 1)))
          throw new IllegalArgumentException(s"label list of vertex $v " + (
            if (r < 0 || r >= n) s"holds hub rank $r, outside 0 until $n"
            else if (r == h(i - 1)) s"holds hub ${order(r)} twice"
            else s"is not ascending in hub rank at index $i"))
        i += 1
      }
      v += 1
    }
  }

  /** Total number of label entries. */
  def entryCount: Long = {
    var s = 0L
    var v = 0
    while (v < n) { s += hubs(v).length; v += 1 }
    s
  }

  /** Index size in bytes at the paper's entry width (4B hub + 4B dist +
    * 8B count = 16B per entry).
    */
  def sizeBytes: Long = entryCount * 16L

  def sizeMB: Double = sizeBytes / (1024.0 * 1024.0)

  /** 2-hop SPC query: returns `(distance, count)`, or `(-1, 0)` when no
    * common hub exists (disconnected pair). Merge-intersects the two
    * rank-sorted label lists (Equations 1–2 of the paper). Hub vertices
    * with weight > 1 (equivalence reduction) contribute their weight when
    * they are interior, i.e. when the hub is neither endpoint.
    *
    * @throws ArithmeticException if the count exceeds a `Long`
    */
  def query(s: Int, t: Int): (Int, Long) = {
    val hs = hubs(s); val ds = dists(s); val cs = cnts(s)
    val ht = hubs(t); val dt = dists(t); val ct = cnts(t)
    var i = 0; var j = 0
    var bestD = Int.MaxValue
    var bestC = 0L
    while (i < hs.length && j < ht.length) {
      val ri = hs(i); val rj = ht(j)
      if (ri == rj) {
        val d = ds(i) + dt(j)
        if (d < bestD) {
          bestD = d
          bestC = 0L
        }
        if (d == bestD) {
          val w = if (weight == null) 1L else { val h = order(ri); if (h != s && h != t) weight(h) else 1L }
          bestC = Counts.add(bestC, Counts.mul(Counts.mul(cs(i), ct(j)), w))
        }
        i += 1; j += 1
      } else if (ri < rj) i += 1
      else j += 1
    }
    if (bestC == Counts.Overflow) throw new ArithmeticException(s"the path count of ($s, $t) exceeds a Long")
    if (bestD == Int.MaxValue) (-1, 0L) else (bestD, bestC)
  }

  /** The label list of `v` as `(hub vertex, dist, cnt)` triples sorted by
    * hub rank.
    */
  def labelOf(v: Int): Seq[(Int, Int, Long)] =
    hubs(v).indices.map(i => (order(hubs(v)(i)), dists(v)(i), cnts(v)(i)))

  /** Canonical form for equality tests: per-vertex sets of entries. */
  def canonical: IndexedSeq[Set[(Int, Int, Long)]] =
    (0 until n).map(v => labelOf(v).toSet)
}
