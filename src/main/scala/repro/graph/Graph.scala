package repro.graph

/** Compact undirected, unweighted graph in CSR form.
  *
  * Vertices are `0 until n`. Parallel edges and self-loops are dropped at
  * construction. `weight(v)` defaults to 1 and is only non-trivial for the
  * reduced graph produced by the neighborhood-equivalence reduction
  * (DESIGN.md §3): a weight `k` means the vertex stands for `k` mutually
  * equivalent original vertices, and every shortest path crossing it in the
  * interior counts `k` times.
  *
  * @param n      number of vertices
  * @param offset CSR row offsets, length `n + 1`
  * @param adj    concatenated sorted adjacency lists, length `2 * m`
  * @param weight per-vertex multiplicity (equivalence-class size)
  */
final class Graph private (
    val n: Int,
    private val offset: Array[Int],
    private val adj: Array[Int],
    val weight: Array[Long],
) extends Serializable {

  /** Number of undirected edges. */
  val m: Int = adj.length / 2

  /** Degree of vertex `v`. */
  def deg(v: Int): Int = offset(v + 1) - offset(v)

  /** Average degree `2m / n`. */
  def avgDeg: Double = if (n == 0) 0.0 else 2.0 * m / n

  /** Iterate the neighbors of `v` without allocating. */
  @inline def foreachNbr(v: Int)(f: Int => Unit): Unit = {
    var i = offset(v)
    val end = offset(v + 1)
    while (i < end) { f(adj(i)); i += 1 }
  }

  /** Neighbors of `v` as a fresh array (sorted ascending). */
  def nbr(v: Int): Array[Int] = java.util.Arrays.copyOfRange(adj, offset(v), offset(v + 1))

  /** True iff `(u, v)` is an edge. */
  def hasEdge(u: Int, v: Int): Boolean = {
    if (u == v) return false
    var lo = offset(u); var hi = offset(u + 1) - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      if (adj(mid) == v) return true
      else if (adj(mid) < v) lo = mid + 1
      else hi = mid - 1
    }
    false
  }

  /** Undirected edge list with `src < dst`, one row per edge. */
  def edges: Array[(Int, Int)] = {
    val out = Array.newBuilder[(Int, Int)]
    out.sizeHint(m)
    var u = 0
    while (u < n) {
      foreachNbr(u)(v => if (u < v) out += ((u, v)))
      u += 1
    }
    out.result()
  }

  /** Breadth-first search from `s` over the vertices whose `dist` is still
    * -1: sets `dist(v)` to the hop distance from `s` of every such vertex it
    * reaches, and returns how many it reached (`s` included). Vertices with
    * `dist >= 0` count as visited, so one array can carry several searches.
    */
  def bfs(s: Int, dist: Array[Int]): Int = bfs(s, dist, new Array[Int](n))

  /** `bfs(s, dist)` with a caller's `queue` of at least `n` slots, which it leaves
    * holding the reached vertices, in visiting order, at `[0, result)`.
    */
  def bfs(s: Int, dist: Array[Int], queue: Array[Int]): Int = {
    var head = 0; var tail = 0
    dist(s) = 0; queue(tail) = s; tail += 1
    while (head < tail) {
      val u = queue(head); head += 1
      foreachNbr(u)(v => if (dist(v) < 0) { dist(v) = dist(u) + 1; queue(tail) = v; tail += 1 })
    }
    tail
  }

  /** Induced subgraph on `keep` (true = kept); returns the subgraph and the
    * old-id array indexed by new id.
    */
  def inducedSubgraph(keep: Array[Boolean]): (Graph, Array[Int]) = {
    val newId = new Array[Int](n)
    val oldId = Array.newBuilder[Int]
    var cnt = 0
    var v = 0
    while (v < n) {
      if (keep(v)) { newId(v) = cnt; oldId += v; cnt += 1 } else newId(v) = -1
      v += 1
    }
    val es = Array.newBuilder[(Int, Int)]
    v = 0
    while (v < n) {
      if (keep(v)) foreachNbr(v)(u => if (keep(u) && v < u) es += ((newId(v), newId(u))))
      v += 1
    }
    val old = oldId.result()
    val w = old.map(weight)
    (Graph.fromEdges(cnt, es.result(), w), old)
  }
}

object Graph {

  /** Build from an undirected edge list; duplicates and self-loops dropped. */
  def fromEdges(n: Int, edges: Iterable[(Int, Int)], weights: Array[Long] = null): Graph = {
    val seen = new java.util.HashSet[Long]()
    val cleaned = Array.newBuilder[(Int, Int)]
    for ((a, b) <- edges if a != b) {
      require(a >= 0 && a < n && b >= 0 && b < n, s"edge ($a,$b) out of range for n=$n")
      val (u, v) = if (a < b) (a, b) else (b, a)
      val key = u.toLong * n + v
      if (seen.add(key)) cleaned += ((u, v))
    }
    val es = cleaned.result()
    val degArr = new Array[Int](n)
    for ((u, v) <- es) { degArr(u) += 1; degArr(v) += 1 }
    val offset = new Array[Int](n + 1)
    var i = 0
    while (i < n) { offset(i + 1) = offset(i) + degArr(i); i += 1 }
    val pos = offset.clone()
    val adj = new Array[Int](offset(n))
    for ((u, v) <- es) {
      adj(pos(u)) = v; pos(u) += 1
      adj(pos(v)) = u; pos(v) += 1
    }
    i = 0
    while (i < n) { java.util.Arrays.sort(adj, offset(i), offset(i + 1)); i += 1 }
    val w = if (weights == null) Array.fill(n)(1L) else weights
    require(w.length == n, "weight array length must equal n")
    new Graph(n, offset, adj, w)
  }

  /** The 10-vertex graph of the paper's Fig. 2, reconstructed from its
    * Table II labels (vertex `v_i` of the paper is vertex `i - 1` here).
    * Its ESPC index under the paper's order must equal Table II exactly.
    */
  def paperExample: Graph = fromEdges(
    10,
    Seq((0, 2), (0, 3), (0, 4), (0, 9), (6, 3), (6, 4), (6, 5), (6, 7),
        (1, 3), (1, 9), (5, 2), (7, 8), (8, 9)),
  )

  /** The paper's total order for Fig. 2 (`v1 ≤ v7 ≤ v4 ≤ v10 ≤ v3 ≤ v5 ≤ v6
    * ≤ v2 ≤ v8 ≤ v9`) as an order array: `paperExampleOrder(rank) = vertex`.
    */
  def paperExampleOrder: Array[Int] = Array(0, 6, 3, 9, 2, 4, 5, 1, 7, 8)
}
