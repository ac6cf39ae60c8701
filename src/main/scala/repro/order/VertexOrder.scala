package repro.order

import repro.graph.Graph
import scala.collection.mutable

/** Vertex ordering strategies (paper §III-G).
  *
  * An order is an array `order(rank) = vertex` with rank 0 the highest;
  * `rankOf` inverts it. The order decides which vertices become hubs early
  * and therefore dominates index size and construction time.
  */
object VertexOrder {

  /** `rankOf(order, n)(v)` = rank of vertex `v` under `order`. Throws
    * `IllegalArgumentException` unless `order` is a permutation of
    * `0 until n`: the message names both lengths, or the first bad slot.
    * Every builder and every [[repro.core.LabelIndex]] checks its order here.
    */
  def rankOf(order: Array[Int], n: Int): Array[Int] = {
    if (order.length != n)
      throw new IllegalArgumentException(s"order has ${order.length} slots for a graph of $n vertices")
    val r = Array.fill(n)(-1)
    var i = 0
    while (i < n) {
      val v = order(i)
      if (v < 0 || v >= n || r(v) >= 0)
        throw new IllegalArgumentException(
          s"order is not a permutation of 0 until $n: slot $i holds $v")
      r(v) = i
      i += 1
    }
    r
  }

  /** Degree-based scheme: rank by descending degree (hubs first), ties by
    * ascending id for determinism. The paper's wording ("ascending degree
    * order") lists low-rank vertices last; operationally high-degree
    * vertices must be ranked highest, as in pruned landmark labeling.
    */
  def degreeOrder(g: Graph): Array[Int] =
    Array.tabulate(g.n)(identity).sortBy(v => (-g.deg(v), v))

  /** Tree-decomposition ("road network") order via minimum-degree
    * elimination: repeatedly remove the minimum-degree vertex, clique its
    * remaining neighbors (fill-in), and update degrees with the paper's
    * rule `deg(u) + deg(u0) - 1`-style growth implicitly realized by the
    * fill-in. The elimination sequence read back-to-front is the rank
    * order (last eliminated = highest rank).
    */
  def treeDecompOrder(g: Graph): Array[Int] = {
    val n = g.n
    // adjacency as mutable hash sets so fill-in edges can be added
    val adj = Array.fill(n)(mutable.HashSet.empty[Int])
    var v = 0
    while (v < n) { g.foreachNbr(v)(u => adj(v) += u); v += 1 }
    val eliminated = new Array[Boolean](n)
    val elimSeq = new Array[Int](n)
    // lazy-deletion priority queue on (degree, id)
    val pq = mutable.PriorityQueue.empty[(Int, Int)](Ordering.by { case (d, id) => (-d, -id) })
    for (u <- 0 until n) pq.enqueue((adj(u).size, u))
    var k = 0
    while (k < n) {
      var u = -1
      while (u < 0) {
        val (d, cand) = pq.dequeue()
        if (!eliminated(cand) && adj(cand).size == d) u = cand
      }
      eliminated(u) = true
      elimSeq(k) = u; k += 1
      val nbrs = adj(u).toArray
      // fill-in: connect every pair of surviving neighbors
      var i = 0
      while (i < nbrs.length) {
        val a = nbrs(i)
        adj(a) -= u
        var j = i + 1
        while (j < nbrs.length) {
          val b = nbrs(j)
          if (!adj(a).contains(b)) { adj(a) += b; adj(b) += a }
          j += 1
        }
        i += 1
      }
      i = 0
      while (i < nbrs.length) { pq.enqueue((adj(nbrs(i)).size, nbrs(i))); i += 1 }
      adj(u).clear()
    }
    elimSeq.reverse
  }

  /** Hybrid order (paper §III-G): vertices with `deg > delta` form the core,
    * ranked by descending degree and above everything else; the fringe
    * (`deg <= delta`) is ranked by the tree-decomposition order of the
    * fringe-induced subgraph.
    */
  def hybridOrder(g: Graph, delta: Int): Array[Int] = {
    val core = (0 until g.n).filter(g.deg(_) > delta).toArray.sortBy(v => (-g.deg(v), v))
    val keep = Array.tabulate(g.n)(g.deg(_) <= delta)
    if (!keep.contains(true)) return core
    val (fringeG, oldId) = g.inducedSubgraph(keep)
    val fringeOrder = treeDecompOrder(fringeG).map(oldId)
    core ++ fringeOrder
  }

  /** Significant-path-based scheme (from [17], reviewed in §III-G): the
    * next hub is chosen from the partial shortest-path tree of the current
    * hub's pruned BFS — an inherently sequential coupling. The tree is
    * supplied by the HP-SPC construction via `spTree` (parents and
    * descendant counts of the last pruned BFS); this object only implements
    * the selection rule so `HpSpc` can drive it.
    *
    * Given the tree rooted at `w`: follow the child with most descendants
    * to a leaf (the significant path), then among unranked path vertices
    * pick the one maximizing `deg(v) * (des(parent(v)) - des(v))`.
    */
  def nextSignificantHub(
      g: Graph,
      root: Int,
      parent: Array[Int],
      des: Array[Int],
      ranked: Array[Boolean],
  ): Int = {
    // children lists of the SP tree
    val children = Array.fill(g.n)(List.empty[Int])
    var v = 0
    while (v < g.n) {
      if (parent(v) >= 0 && v != root) children(parent(v)) ::= v
      v += 1
    }
    // walk the significant path
    val path = mutable.ArrayBuffer.empty[Int]
    var cur = root
    while (children(cur).nonEmpty) {
      cur = children(cur).maxBy(c => (des(c), -c))
      path += cur
    }
    val candidates = path.filterNot(ranked)
    if (candidates.nonEmpty)
      candidates.maxBy(v => (g.deg(v).toLong * (des(parent(v)) - des(v)), -v))
    else {
      // fall back to the unranked vertex of highest degree
      var best = -1
      var u = 0
      while (u < g.n) {
        if (!ranked(u) && (best < 0 || g.deg(u) > g.deg(best))) best = u
        u += 1
      }
      best
    }
  }
}
