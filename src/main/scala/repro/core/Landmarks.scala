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
  * task, each into its own distance array; the default single worker runs
  * them inline.
  *
  * @param rank the build's rank of every vertex: [[decide]] takes hubs as
  *             ranks, as the PSPC kernel stores them
  */
final class Landmarks(g: Graph, val k: Int, rank: Array[Int], workers: Workers = new Workers(1))
    extends Serializable {

  /** Landmark vertices: the first `k` of the degree order. */
  val vertices: Array[Int] = VertexOrder.degreeOrder(g).take(k)

  /** The landmark index of each hub rank, -1 for a rank that is no landmark. */
  private val landmarkIdx: Array[Int] = {
    val a = Array.fill(g.n)(-1)
    vertices.zipWithIndex.foreach { case (v, i) => a(rank(v)) = i }
    a
  }

  /** `table(i)(v)` is the exact distance from landmark `i` to `v` (-1
    * unreachable). Every worker reuses one BFS queue.
    */
  private val table: Array[Array[Int]] = {
    val t = new Array[Array[Int]](vertices.length)
    val queues = Array.fill(workers.count)(new Array[Int](g.n))
    workers.dynamic(t.length, 1) { (w, from, until) =>
      var i = from
      while (i < until) { t(i) = Array.fill(g.n)(-1); g.bfs(vertices(i), t(i), queues(w)); i += 1 }
    }
    t
  }

  /** Exact distance from landmark `i` (the vertex `vertices(i)`) to `v`,
    * or -1 if `v` is unreachable from it.
    */
  def dist(i: Int, v: Int): Int = table(i)(v)

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
      val dw = table(wi)(u)
      if (dw >= 0 && dw < d) 1 else 0
    } else -1
  }
}
