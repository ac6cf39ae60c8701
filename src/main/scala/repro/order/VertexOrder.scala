package repro.order

import repro.graph.Graph

/** Vertex ordering strategies (paper §III-G).
  *
  * An order is an array `order(rank) = vertex` with rank 0 the highest;
  * `rankOf` inverts it. The order decides which vertices become hubs early
  * and therefore dominates index size and construction time. The
  * significant-path order of [17] is chosen while HP-SPC builds, from each
  * hub's pruned BFS tree, so it lives in [[repro.core.HpSpc]].
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
  def degreeOrder(g: Graph): Array[Int] = byDescendingDegree(g, Array.range(0, g.n))

  /** `vs` by descending degree, ties by ascending id: one primitive sort of
    * `(maxDeg - deg) << 32 | v` keys.
    */
  private def byDescendingDegree(g: Graph, vs: Array[Int]): Array[Int] = {
    var maxDeg = 0
    var i = 0
    while (i < vs.length) { maxDeg = math.max(maxDeg, g.deg(vs(i))); i += 1 }
    val keys = new Array[Long](vs.length)
    i = 0
    while (i < vs.length) { keys(i) = ((maxDeg - g.deg(vs(i))).toLong << 32) | vs(i); i += 1 }
    java.util.Arrays.sort(keys)
    val out = new Array[Int](vs.length)
    i = 0
    while (i < vs.length) { out(i) = keys(i).toInt; i += 1 }
    out
  }

  /** Tree-decomposition ("road network") order via minimum-degree
    * elimination: repeatedly remove the minimum-degree vertex, clique its
    * remaining neighbors (fill-in), and update degrees with the paper's
    * rule `deg(u) + deg(u0) - 1`-style growth implicitly realized by the
    * fill-in. The elimination sequence read back-to-front is the rank
    * order (last eliminated = highest rank).
    */
  def treeDecompOrder(g: Graph): Array[Int] = eliminationOrder(g, Array.fill(g.n)(true))

  /** Minimum-degree elimination of the subgraph induced by `keep`, as a rank
    * order of its vertices. The next vertex is always the minimum
    * (current degree, id) among the uneliminated ones.
    */
  private def eliminationOrder(g: Graph, keep: Array[Boolean]): Array[Int] = {
    val n = g.n
    // per-vertex adjacency arrays, the first deg(v) slots live; fill-in
    // grows them, elimination swap-removes from them
    val adj = new Array[Array[Int]](n)
    val deg = new Array[Int](n)
    val heap = new MinHeap(n)
    var size = 0
    var v = 0
    while (v < n) {
      if (keep(v)) {
        adj(v) = new Array[Int](math.max(4, g.deg(v)))
        g.foreachNbr(v)(u => if (keep(u)) { adj(v)(deg(v)) = u; deg(v) += 1 })
        heap.push((deg(v).toLong << 32) | v)
        size += 1
      }
      v += 1
    }
    def add(a: Int, b: Int): Unit = {
      if (deg(a) == adj(a).length) adj(a) = java.util.Arrays.copyOf(adj(a), 2 * deg(a))
      adj(a)(deg(a)) = b; deg(a) += 1
    }
    val eliminated = new Array[Boolean](n)
    // mark(x) == stamp <=> x is a neighbour of the vertex being filled in
    val mark = new Array[Int](n)
    var stamp = 0
    val elimSeq = new Array[Int](size)
    var k = 0
    while (k < size) {
      // lazy deletion: skip keys of eliminated vertices and stale degrees
      var u = -1
      while (u < 0) {
        val key = heap.pop()
        val cand = key.toInt
        if (!eliminated(cand) && deg(cand) == (key >>> 32).toInt) u = cand
      }
      eliminated(u) = true
      elimSeq(size - 1 - k) = u; k += 1
      val nbrs = adj(u); val du = deg(u)
      var i = 0
      while (i < du) {
        val a = nbrs(i)
        val la = adj(a)
        var j = 0
        while (la(j) != u) j += 1
        deg(a) -= 1; la(j) = la(deg(a))
        i += 1
      }
      // fill-in: connect every pair of surviving neighbors
      i = 0
      while (i < du) {
        val a = nbrs(i)
        stamp += 1
        var j = 0
        while (j < deg(a)) { mark(adj(a)(j)) = stamp; j += 1 }
        j = i + 1
        while (j < du) {
          val b = nbrs(j)
          if (mark(b) != stamp) { add(a, b); add(b, a) }
          j += 1
        }
        i += 1
      }
      i = 0
      while (i < du) { heap.push((deg(nbrs(i)).toLong << 32) | nbrs(i)); i += 1 }
      adj(u) = null
    }
    elimSeq
  }

  /** Binary min-heap of primitive longs. */
  private final class MinHeap(initial: Int) {
    private var a = new Array[Long](math.max(16, initial))
    private var len = 0

    def push(x: Long): Unit = {
      if (len == a.length) a = java.util.Arrays.copyOf(a, 2 * len)
      var i = len; len += 1
      while (i > 0 && a((i - 1) >>> 1) > x) { a(i) = a((i - 1) >>> 1); i = (i - 1) >>> 1 }
      a(i) = x
    }

    def pop(): Long = {
      val top = a(0)
      len -= 1
      val x = a(len)
      var i = 0
      var done = len == 0
      while (!done) {
        var c = 2 * i + 1
        if (c >= len) done = true
        else {
          if (c + 1 < len && a(c + 1) < a(c)) c += 1
          if (a(c) < x) { a(i) = a(c); i = c } else done = true
        }
      }
      if (len > 0) a(i) = x
      top
    }
  }

  /** Hybrid order (paper §III-G): vertices with `deg > delta` form the core,
    * ranked by descending degree and above everything else; the fringe
    * (`deg <= delta`) is ranked by the tree-decomposition order of the
    * fringe-induced subgraph.
    */
  def hybridOrder(g: Graph, delta: Int): Array[Int] = {
    val fringe = Array.tabulate(g.n)(g.deg(_) <= delta)
    byDescendingDegree(g, Array.range(0, g.n).filter(!fringe(_))) ++ eliminationOrder(g, fringe)
  }
}
