package repro.core

import repro.order.VertexOrder

/** A 2-hop Exact-Shortest-Path-Covering label index.
  *
  * For each vertex `v`, `hubs(v)(i) / dists(v)(i) / cnts(v)(i)` hold the
  * entry `(w, dis(v,w), c)` where `c` is the number of trough shortest
  * paths from `v` to `w` (DESIGN.md §2). Entries are sorted by hub rank
  * (highest rank first) so two label lists intersect by merge.
  *
  * @param order  the total order the index was built under (`order(rank) = v`)
  * @param weight vertex weights of the graph the index was built on, or
  *               `null` when every weight is 1
  */
final class LabelIndex(
    val order: Array[Int],
    val hubs: Array[Array[Int]],
    val dists: Array[Array[Int]],
    val cnts: Array[Array[Long]],
    val weight: Array[Long] = null,
) extends Serializable {

  val n: Int = hubs.length
  val rank: Array[Int] = VertexOrder.rankOf(order, hubs.length)

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
      val ri = rank(hs(i)); val rj = rank(ht(j))
      if (ri == rj) {
        val d = ds(i) + dt(j)
        if (d < bestD) {
          bestD = d
          bestC = 0L
        }
        if (d == bestD) {
          val h = hs(i)
          val w = if (weight != null && h != s && h != t) weight(h) else 1L
          bestC = Counts.add(bestC, Counts.mul(Counts.mul(cs(i), ct(j)), w))
        }
        i += 1; j += 1
      } else if (ri < rj) i += 1
      else j += 1
    }
    if (bestC == Counts.Overflow) throw new ArithmeticException(s"the path count of ($s, $t) exceeds a Long")
    if (bestD == Int.MaxValue) (-1, 0L) else (bestD, bestC)
  }

  /** The label list of `v` as `(hub, dist, cnt)` triples sorted by hub rank. */
  def labelOf(v: Int): Seq[(Int, Int, Long)] =
    hubs(v).indices.map(i => (hubs(v)(i), dists(v)(i), cnts(v)(i)))

  /** Canonical form for equality tests: per-vertex sets of entries. */
  def canonical: IndexedSeq[Set[(Int, Int, Long)]] =
    (0 until n).map(v => labelOf(v).toSet)
}

object LabelIndex {

  /** Assemble an index from per-vertex label arrays in any entry order.
    * Sorts each vertex's `hubs` / `dists` / `cnts` together by hub rank, in
    * place, and throws if a label list holds the same hub twice. HP-SPC and
    * the tests assemble their indexes here; PSPC's kernel keeps its blocks
    * sorted by rank and merges them itself (`Pspc.Kernel.index`).
    *
    * @param weight  the graph's vertex weights; an index whose weights are
    *                all 1 stores `null`, so its queries skip the lookup
    * @param workers sorts the vertices' lists in parallel; the default
    *                single worker sorts them on the calling thread
    */
  def fromArrays(
      order: Array[Int],
      hubs: Array[Array[Int]],
      dists: Array[Array[Int]],
      cnts: Array[Array[Long]],
      weight: Array[Long] = null,
      workers: Workers = new Workers(1),
  ): LabelIndex = {
    val rank = VertexOrder.rankOf(order, hubs.length)
    val scratches = Array.fill(workers.count)(new SortScratch)
    workers.dynamic(hubs.length, 64) { (t, from, until) =>
      val s = scratches(t)
      var v = from
      while (v < until) { sortLabel(v, rank, hubs(v), dists(v), cnts(v), s); v += 1 }
    }
    ofSorted(order, hubs, dists, cnts, weight)
  }

  /** An index over label lists that are already sorted by hub rank, with
    * the same weight rule as `fromArrays`.
    */
  private[core] def ofSorted(
      order: Array[Int],
      hubs: Array[Array[Int]],
      dists: Array[Array[Int]],
      cnts: Array[Array[Long]],
      weight: Array[Long],
  ): LabelIndex =
    new LabelIndex(order, hubs, dists, cnts, if (weight == null || weight.forall(_ == 1L)) null else weight)

  /** Per-worker buffers of `sortLabel`, grown to the longest list seen. */
  private final class SortScratch {
    var keys = new Array[Long](16)
    var ints = new Array[Int](16)
    var longs = new Array[Long](16)
  }

  /** Sort one label list by hub rank, in place. */
  private def sortLabel(
      v: Int, rank: Array[Int], h: Array[Int], d: Array[Int], c: Array[Long], s: SortScratch): Unit = {
    val len = h.length
    if (s.keys.length < len) {
      s.keys = new Array[Long](len); s.ints = new Array[Int](len); s.longs = new Array[Long](len)
    }
    // key = rank(hub) << 32 | position: one primitive sort orders a list by
    // rank and says where each entry came from
    val keys = s.keys; val tmpInt = s.ints; val tmpLong = s.longs
    var i = 0
    while (i < len) { keys(i) = (rank(h(i)).toLong << 32) | i; i += 1 }
    java.util.Arrays.sort(keys, 0, len)
    i = 1
    while (i < len) {
      if (keys(i) >>> 32 == keys(i - 1) >>> 32)
        throw new IllegalArgumentException(s"label list of vertex $v holds hub ${h(keys(i).toInt)} twice")
      i += 1
    }
    System.arraycopy(h, 0, tmpInt, 0, len)
    i = 0
    while (i < len) { h(i) = tmpInt(keys(i).toInt); i += 1 }
    System.arraycopy(d, 0, tmpInt, 0, len)
    i = 0
    while (i < len) { d(i) = tmpInt(keys(i).toInt); i += 1 }
    System.arraycopy(c, 0, tmpLong, 0, len)
    i = 0
    while (i < len) { c(i) = tmpLong(keys(i).toInt); i += 1 }
  }
}
