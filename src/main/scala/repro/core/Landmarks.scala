package repro.core

import repro.graph.Graph
import repro.order.VertexOrder

/** Landmark-based filtering (paper §III-H).
  *
  * The `k` highest-degree vertices become landmarks; a plain BFS from each
  * precomputes exact distances to every vertex (the "LL" phase of Exp 8).
  * During label construction the filter answers two questions in O(1)/O(k)
  * without scanning label lists:
  *
  *  - if the candidate hub `w` *is* a landmark, `dis(w,u)` is known exactly,
  *    so the prune test `dis(w,u) < d` is exact and O(1). With 100
  *    landmarks this decides 296,925 of the 4,213,607 candidates (7 %) of
  *    `pspcbench`'s `social` build and 692,402 of 1,678,199 (41 %) of its
  *    `road` build (seed 1);
  *  - other hubs fall through to the label-scan query (a triangle-inequality
  *    sweep over all landmarks costs more than the scan it would replace).
  *
  * The `k` BFSs are independent and run on `workers`, one landmark per
  * task; the default single worker runs them inline. The distances are
  * stored vertex-major, one row of `k` per vertex, so `n * k` must fit one
  * array; a larger table fails the constructor.
  *
  * @param rank the build's rank of every vertex: [[decide]] takes hubs as
  *             ranks, as the PSPC kernel stores them
  */
final class Landmarks(g: Graph, val k: Int, rank: Array[Int], workers: Workers = new Workers(1))
    extends Serializable {
  require(g.n.toLong * math.min(k, g.n) <= Int.MaxValue - 8,
    s"a landmark table of ${g.n} vertices x $k landmarks does not fit one array")

  /** Landmark vertices: the first `k` of the degree order. */
  val vertices: Array[Int] = VertexOrder.degreeOrder(g).take(k)

  private val width: Int = vertices.length

  /** The landmark index of each hub rank, -1 for a rank that is no landmark. */
  private val landmarkIdx: Array[Int] = {
    val a = Array.fill(g.n)(-1)
    vertices.zipWithIndex.foreach { case (v, i) => a(rank(v)) = i }
    a
  }

  /** Distances, vertex-major: `table(v * width + i)` is the exact distance
    * from landmark `i` to `v` (-1 unreachable), so the lookups of one pull
    * share one row. Every worker reuses one BFS queue.
    *
    * One worker reuses one distance array and copies each BFS into its
    * column. Several workers instead fill one array per landmark and then
    * transpose them by row ranges, so each row is written by one worker. On
    * `pspcbench`'s `road` input (100 landmarks, 4 vCPU) the column copies
    * took ~15 ms on 4 workers against ~12 ms with the transpose, and 37–45
    * ms on 1 worker against 44–58 ms.
    */
  private val table: Array[Int] = {
    val n = g.n
    val t = new Array[Int](n * width)
    val queues = Array.fill(workers.count)(new Array[Int](n))
    if (workers.count == 1) {
      val a = Array.fill(n)(-1)
      var i = 0
      while (i < width) { Landmarks.copyColumn(g, vertices(i), a, queues(0), t, i, width); i += 1 }
    } else {
      val byLandmark = new Array[Array[Int]](width)
      workers.dynamic(width, 1) { (w, from, until) =>
        var i = from
        while (i < until) { byLandmark(i) = Array.fill(n)(-1); g.bfs(vertices(i), byLandmark(i), queues(w)); i += 1 }
      }
      workers.dynamic(n, 1024) { (_, from, until) =>
        var i = 0
        while (i < width) {
          val a = byLandmark(i)
          var v = from
          while (v < until) { t(v * width + i) = a(v); v += 1 }
          i += 1
        }
      }
    }
    t
  }

  /** Exact distance from landmark `i` (the vertex `vertices(i)`) to `v`,
    * or -1 if `v` is unreachable from it.
    */
  def dist(i: Int, v: Int): Int = table(v * width + i)

  /** Decide the candidate `(w, u, d)`, hub `w` given by its rank, using
    * landmark information only.
    *
    * Only the O(1) landmark-hub fast path is used, and its prune test is
    * exact. It decides the candidates whose hub is a landmark: 7 % of
    * them on `pspcbench`'s `social` build and 41 % on `road` (100
    * landmarks; see the class doc). Scanning all landmarks by triangle
    * inequality for the remaining hubs costs more than the label scan it
    * replaces, so undecided candidates fall through.
    *
    * @return `1` = provably prune, `0` = provably keep (exact distance = d),
    *         `-1` = undecided (fall through to the label-scan query)
    */
  @inline def decide(w: Int, u: Int, d: Int): Int = {
    val wi = landmarkIdx(w)
    if (wi >= 0) {
      val dw = table(u * width + wi)
      if (dw >= 0 && dw < d) 1 else 0
    } else -1
  }
}

private object Landmarks {

  /** BFS from `source` in `dist` (all -1 on entry and on return), with
    * the distances copied into column `i` of the `width`-wide `table`. It
    * is a method, not a loop in the class body, because the JIT compiled
    * the class-body loop poorly: a one-worker social table took ~63 ms
    * there against ~37 ms here.
    */
  def copyColumn(g: Graph, source: Int, dist: Array[Int], queue: Array[Int], table: Array[Int], i: Int,
      width: Int): Unit = {
    val reached = g.bfs(source, dist, queue)
    var v = 0
    while (v < g.n) { table(v * width + i) = dist(v); v += 1 }
    var r = 0
    while (r < reached) { dist(queue(r)) = -1; r += 1 }
  }
}
