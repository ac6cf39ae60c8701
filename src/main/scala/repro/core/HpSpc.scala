package repro.core

import repro.graph.Graph
import repro.order.VertexOrder

/** The sequential baseline HP-SPC_s (Zhang & Yu, SIGMOD'20 [17]):
  * one pruned BFS per vertex, processed in vertex-rank order.
  *
  * The BFS from hub `h` explores only vertices not yet processed (i.e.
  * ranked strictly lower than `h`), so the `(dist, cnt)` it computes for a
  * reached vertex `u` are exactly the trough shortest paths `h ⇝ u`.
  * A reached vertex is pruned — no label, no expansion — iff the 2-hop
  * query over the partial index beats the BFS depth (`Lemma 1`):
  * depth > query ⇒ prune; depth = query ⇒ non-canonical label (some
  * shortest paths run through higher hubs); depth < query ⇒ canonical
  * label. This is the order-dependent loop PSPC removes.
  */
object HpSpc {

  /** Build the ESPC index under a fixed total order, a permutation of
    * `0 until g.n`.
    *
    * @throws ArithmeticException if a label's path count exceeds a `Long`
    */
  def build(g: Graph, order: Array[Int]): LabelIndex = {
    VertexOrder.rankOf(order, g.n) // reject a malformed order before any BFS
    val s = new State(g.n)
    var r = 0
    while (r < order.length) {
      prunedBfs(g, order(r), r, s, wantTree = false)
      s.processed(order(r)) = true
      r += 1
    }
    s.toIndex(order, g.weight)
  }

  /** Build with the significant-path-based dynamic order of [17]: the next
    * hub is selected from the shortest-path tree of the current hub's
    * pruned BFS (paper §III-G). Returns the index and the order produced.
    */
  def buildWithSignificantPathOrder(g: Graph): (LabelIndex, Array[Int]) = {
    val s = new State(g.n)
    val order = new Array[Int](g.n)
    // w1 = highest-degree vertex
    var h = (0 until g.n).maxBy(v => (g.deg(v), -v))
    var r = 0
    while (r < g.n) {
      order(r) = h
      prunedBfs(g, h, r, s, wantTree = true)
      s.processed(h) = true
      r += 1
      if (r < g.n)
        h = VertexOrder.nextSignificantHub(g, h, s.parent, s.des, s.processed)
    }
    (s.toIndex(order, g.weight), order)
  }

  /** One build's state: the labels `(hub rank, dist, cnt)` grown so far
    * per vertex, the processed hubs, and reusable per-BFS working arrays
    * (avoids O(n) allocation per hub). Hubs run in rank order, so every
    * list grows in the ascending rank order [[LabelIndex]] stores.
    */
  final class State(n: Int) {
    val hubs: Array[IntBuf] = Array.fill(n)(new IntBuf)
    val dists: Array[IntBuf] = Array.fill(n)(new IntBuf)
    val cnts: Array[LongBuf] = Array.fill(n)(new LongBuf)
    val processed: Array[Boolean] = new Array[Boolean](n)
    val dist: Array[Int] = Array.fill(n)(-1)
    val cnt: Array[Long] = new Array[Long](n)
    val parent: Array[Int] = Array.fill(n)(-1)
    val des: Array[Int] = new Array[Int](n)
    val pruned: Array[Boolean] = new Array[Boolean](n)
    val queue: Array[Int] = new Array[Int](n)
    val tmpDist: Array[Int] = Array.fill(n)(-1) // hub rank -> dist(h, hub), for O(|L(u)|) queries

    def addLabel(v: Int, hub: Int, dist: Int, cnt: Long): Unit = {
      hubs(v) += hub; dists(v) += dist; cnts(v) += cnt
    }

    def toIndex(order: Array[Int], weight: Array[Long]): LabelIndex =
      new LabelIndex(order, hubs.map(_.toArray), dists.map(_.toArray), cnts.map(_.toArray), weight)
  }

  /** One pruned BFS sourced at `h`, of rank `r`; appends this iteration's
    * labels, with hub `r`, to `s`. When `wantTree`, also records the BFS
    * tree parents and subtree descendant counts in `s` (for the
    * significant-path order).
    */
  private def prunedBfs(g: Graph, h: Int, r: Int, s: State, wantTree: Boolean): Unit = {
    import s._
    if (wantTree) {
      // the significant-path order reads parent/des for exactly this BFS:
      // clear stale values from the previous iteration
      java.util.Arrays.fill(parent, -1)
      java.util.Arrays.fill(des, 0)
    }
    // load L(h) into the rank->dist table for constant-time query terms
    val lh = hubs(h); val ld = dists(h)
    var i = 0
    while (i < lh.len) { tmpDist(lh(i)) = ld(i); i += 1 }
    tmpDist(r) = 0

    var head = 0; var tail = 0
    var touched = 0
    dist(h) = 0; cnt(h) = 1L; parent(h) = -1; pruned(h) = false
    queue(tail) = h; tail += 1
    addLabel(h, r, 0, 1L)
    var levelEnd = tail
    var d = 1
    while (head < tail) {
      // expand one full level so counts are complete before labeling
      while (head < levelEnd) {
        val u = queue(head); head += 1
        if (!pruned(u)) {
          val cu = if (u == h) cnt(u) else Counts.mul(cnt(u), g.weight(u))
          g.foreachNbr(u) { v =>
            if (!processed(v) && v != h) {
              if (dist(v) < 0) {
                dist(v) = d
                cnt(v) = cu
                parent(v) = u
                pruned(v) = false
                queue(tail) = v; tail += 1
              } else if (dist(v) == d) {
                cnt(v) = Counts.add(cnt(v), cu)
              }
            }
          }
        }
      }
      // label / prune the finished level
      var k = levelEnd
      while (k < tail) {
        val u = queue(k)
        // Query(h, u, L_<i) < d, via the tmpDist table: only whether some
        // common hub beats the BFS depth matters, so the scan stops there
        val hu = hubs(u); val du = dists(u)
        var beaten = false
        var j = 0
        while (j < hu.len && !beaten) {
          val td = tmpDist(hu(j))
          beaten = td >= 0 && td + du(j) < d
          j += 1
        }
        if (beaten) pruned(u) = true
        else if (cnt(u) == Counts.Overflow) throw Counts.overflow(u, h)
        else addLabel(u, r, d, cnt(u))
        k += 1
      }
      levelEnd = tail
      d += 1
    }
    // descendant counts for the significant-path order (labeled vertices)
    if (wantTree) {
      var k = tail - 1
      while (k >= 0) { des(queue(k)) = 1; k -= 1 }
      k = tail - 1
      while (k > 0) {
        val u = queue(k)
        if (!pruned(u) && parent(u) >= 0) des(parent(u)) += des(u)
        k -= 1
      }
    }
    // reset scratch for the vertices we touched
    touched = tail
    var k = 0
    while (k < touched) {
      val u = queue(k)
      dist(u) = -1; cnt(u) = 0L
      if (!wantTree) parent(u) = -1
      k += 1
    }
    i = 0
    while (i < lh.len) { tmpDist(lh(i)) = -1; i += 1 }
    tmpDist(r) = -1
  }
}
