package repro.graph

import scala.collection.mutable

/** Exact reference implementations of shortest-path counting.
  *
  * These are the ground truth every index builder is tested against. They
  * are deliberately simple (plain BFS / exhaustive DFS) and themselves
  * cross-checked against each other on tiny graphs.
  */
object Reference {

  /** Single-source BFS distances and exact shortest-path counts.
    *
    * Counts honour vertex weights for *interior* vertices: a path's count
    * contribution is the product of `g.weight` over its interior vertices
    * (1 on unweighted graphs). This is exactly the multiplicity semantics
    * of the neighborhood-equivalence reduction (DESIGN.md §3). Counts are
    * `BigInt`, so they cannot wrap the way a `Long` count of an index can.
    *
    * @return `(dist, cnt)`; `dist(v) = -1` and `cnt(v) = 0` for unreachable `v`
    */
  def bfsSpcExact(g: Graph, s: Int): (Array[Int], Array[BigInt]) = {
    val dist = Array.fill(g.n)(-1)
    val cnt = Array.fill(g.n)(BigInt(0))
    val queue = new Array[Int](g.n)
    var head = 0; var tail = 0
    dist(s) = 0; cnt(s) = BigInt(1)
    queue(tail) = s; tail += 1
    while (head < tail) {
      val u = queue(head); head += 1
      val cu = if (u == s) cnt(u) else cnt(u) * g.weight(u)
      g.foreachNbr(u) { v =>
        if (dist(v) < 0) {
          dist(v) = dist(u) + 1
          queue(tail) = v; tail += 1
          cnt(v) = cu
        } else if (dist(v) == dist(u) + 1) {
          cnt(v) += cu
        }
      }
    }
    (dist, cnt)
  }

  /** [[bfsSpcExact]] with `Long` counts.
    *
    * @throws ArithmeticException if a count exceeds a `Long`
    */
  def bfsSpc(g: Graph, s: Int): (Array[Int], Array[Long]) = {
    val (dist, cnt) = bfsSpcExact(g, s)
    (dist, cnt.map(_.bigInteger.longValueExact))
  }

  /** All-pairs `(dist, spc)` as a dense matrix pair — small graphs only. */
  def allPairs(g: Graph): (Array[Array[Int]], Array[Array[Long]]) = {
    val d = new Array[Array[Int]](g.n)
    val c = new Array[Array[Long]](g.n)
    var s = 0
    while (s < g.n) {
      val (ds, cs) = bfsSpc(g, s)
      d(s) = ds; c(s) = cs
      s += 1
    }
    (d, c)
  }

  /** Exhaustively enumerate all shortest paths from `s` to `t` (tiny graphs
    * only). Used to validate `bfsSpc` itself.
    */
  def enumerateShortestPaths(g: Graph, s: Int, t: Int): Seq[List[Int]] = {
    val (dist, _) = bfsSpc(g, s)
    if (dist(t) < 0) return Nil
    val out = mutable.ArrayBuffer.empty[List[Int]]
    def dfs(u: Int, acc: List[Int]): Unit = {
      if (u == t) { out += acc.reverse; return }
      g.foreachNbr(u)(v => if (dist(v) == dist(u) + 1 && dist(v) <= dist(t)) dfs(v, v :: acc))
    }
    dfs(s, List(s))
    out.toSeq.filter(_.length == dist(t) + 1)
  }

  /** Number of *trough* shortest paths from `v` to `w` under `rank`
    * (rank 0 = highest): shortest paths on which `w` is the
    * highest-ranked vertex. This is the exact count an ESPC label stores,
    * computed by restricted BFS — used to validate label counts directly.
    */
  def troughCount(g: Graph, v: Int, w: Int, rank: Array[Int]): (Int, Long) = {
    // BFS from w restricted to vertices ranked strictly lower than w
    // (plus w itself); a trough path exists iff the restricted distance
    // equals the true distance.
    val (trueDist, _) = bfsSpc(g, w)
    if (trueDist(v) < 0) return (-1, 0L)
    val dist = Array.fill(g.n)(-1)
    val cnt = new Array[Long](g.n)
    val queue = new Array[Int](g.n)
    var head = 0; var tail = 0
    dist(w) = 0; cnt(w) = 1L
    queue(tail) = w; tail += 1
    while (head < tail) {
      val u = queue(head); head += 1
      val cu = if (u == w) cnt(u) else cnt(u) * g.weight(u)
      g.foreachNbr(u) { x =>
        if (rank(x) > rank(w)) {
          if (dist(x) < 0) {
            dist(x) = dist(u) + 1
            queue(tail) = x; tail += 1
            cnt(x) = cu
          } else if (dist(x) == dist(u) + 1) {
            cnt(x) += cu
          }
        }
      }
    }
    if (dist(v) == trueDist(v)) (trueDist(v), cnt(v)) else (trueDist(v), 0L)
  }
}
