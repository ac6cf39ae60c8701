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
      prunedBfs(g, order(r), r, s)
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
    val next = new SignificantPath(g)
    val order = new Array[Int](g.n)
    var reached = 0 // no BFS yet: w1 is the highest-degree vertex
    var r = 0
    while (r < g.n) {
      val h = next(s, reached)
      order(r) = h
      reached = prunedBfs(g, h, r, s)
      s.processed(h) = true
      r += 1
    }
    (s.toIndex(order, g.weight), order)
  }

  /** The significant-path rule of [17], `O(reached)` per hub. The last
    * pruned BFS left its `reached` vertices in `s.queue` in BFS order, root
    * first, with their tree parents in `s.parent`; `des(v)` counts `v` and
    * the descendants of its unpruned children (a pruned vertex is a leaf).
    * The significant path follows the child with most descendants (ties to
    * the lower id) from the root to a leaf, and the next hub is its vertex
    * maximising `deg(v) * (des(parent(v)) - des(v))`, ties to the lower id.
    * When the root has no child, it is the unranked vertex of highest
    * degree, lowest id: a cursor into the degree order that only moves on.
    */
  private[core] final class SignificantPath(g: Graph) {
    private val des = new Array[Int](g.n)
    private val child = new Array[Int](g.n) // the child with the most descendants, -1 for none
    private val byDegree = VertexOrder.degreeOrder(g)
    private var cursor = 0

    def apply(s: State, reached: Int): Int = {
      import s.{parent, pruned, queue}
      var k = 0
      while (k < reached) { des(queue(k)) = 1; child(queue(k)) = -1; k += 1 }
      k = reached - 1
      while (k > 0) { // children after parents: each des(u) is final when u is read
        val u = queue(k); val p = parent(u)
        if (!pruned(u)) des(p) += des(u)
        val c = child(p)
        if (c < 0 || des(u) > des(c) || (des(u) == des(c) && u < c)) child(p) = u
        k -= 1
      }
      var best = -1; var bestScore = -1L
      var v = if (reached > 0) child(queue(0)) else -1
      while (v >= 0) {
        val score = g.deg(v).toLong * (des(parent(v)) - des(v))
        if (score > bestScore || (score == bestScore && v < best)) { best = v; bestScore = score }
        v = child(v)
      }
      if (best < 0) {
        while (s.processed(byDegree(cursor))) cursor += 1
        best = byDegree(cursor)
      }
      best
    }
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
    val parent: Array[Int] = new Array[Int](n)
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
    * labels, with hub `r`, to `s`. Returns the number of vertices reached,
    * which it leaves in `s.queue` in BFS order, each but `h` with its BFS
    * tree parent in `s.parent` (for the significant-path order).
    */
  private def prunedBfs(g: Graph, h: Int, r: Int, s: State): Int = {
    import s._
    // load L(h) into the rank->dist table for constant-time query terms
    val lh = hubs(h); val ld = dists(h)
    var i = 0
    while (i < lh.len) { tmpDist(lh(i)) = ld(i); i += 1 }
    tmpDist(r) = 0

    var head = 0; var tail = 0
    dist(h) = 0; cnt(h) = 1L; pruned(h) = false
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
    // reset scratch for the vertices we touched
    var k = 0
    while (k < tail) { dist(queue(k)) = -1; cnt(queue(k)) = 0L; k += 1 }
    i = 0
    while (i < lh.len) { tmpDist(lh(i)) = -1; i += 1 }
    tmpDist(r) = -1
    tail
  }
}
