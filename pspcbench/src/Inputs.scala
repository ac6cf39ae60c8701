package pspcbench

import scala.collection.mutable
import scala.util.Random

/** An undirected edge list over vertices `0 until n`: the only graph input
  * the program receives.
  */
final case class EdgeList(n: Int, edges: Array[(Int, Int)]) {
  def m: Int = edges.length
  def avgDeg: Double = 2.0 * m / n
}

/** Input generators owned by the benchmark, so that a workload stays the
  * same when the program's own generators change. Each is a pure function
  * of its parameters and `seed`.
  */
object Inputs {

  /** Chung-Lu power-law graph, restricted to its largest component.
    * Expected degree of vertex `i` is proportional to `(i + 10)^(-1/(gamma-1))`,
    * scaled so the expected average degree is `avgDeg`; both endpoints of
    * each edge are picked in proportion to that weight.
    */
  def chungLu(n: Int, avgDeg: Double, gamma: Double, seed: Long): EdgeList = {
    val rnd = new Random(seed)
    val cum = new Array[Double](n)
    var acc = 0.0
    var i = 0
    while (i < n) { acc += math.pow(i + 10.0, -1.0 / (gamma - 1.0)); cum(i) = acc; i += 1 }
    def pick(): Int = {
      val x = rnd.nextDouble() * acc
      var lo = 0; var hi = n - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cum(mid) < x) lo = mid + 1 else hi = mid
      }
      lo
    }
    val target = (avgDeg * n / 2).toInt
    val es = mutable.LinkedHashSet.empty[(Int, Int)]
    var guard = 0
    while (es.size < target && guard < 60 * target) {
      val a = pick(); val b = pick()
      if (a != b) es += (if (a < b) (a, b) else (b, a))
      guard += 1
    }
    largestComponent(n, es.toArray)
  }

  /** Perturbed `rows × cols` grid, the road-network stand-in: a share `drop`
    * of lattice edges removed and `n / 50` random shortcuts added, then
    * restricted to its largest component.
    */
  def roadGrid(rows: Int, cols: Int, drop: Double, seed: Long): EdgeList = {
    val rnd = new Random(seed)
    val n = rows * cols
    val es = mutable.ArrayBuffer.empty[(Int, Int)]
    for (r <- 0 until rows; c <- 0 until cols) {
      val v = r * cols + c
      if (c + 1 < cols && rnd.nextDouble() >= drop) es += ((v, v + 1))
      if (r + 1 < rows && rnd.nextDouble() >= drop) es += ((v, v + cols))
    }
    for (_ <- 0 until math.max(2, n / 50)) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      if (a != b) es += (if (a < b) (a, b) else (b, a))
    }
    largestComponent(n, es.distinct.toArray)
  }

  /** `k` diamonds in a row: vertex `3i` joins vertex `3(i+1)` through
    * the two middle vertices `3i+1` and `3i+2`. The end-to-end shortest
    * path count is exactly `2^k` at distance `2k`.
    */
  def diamondChain(k: Int): EdgeList = {
    val es = (0 until k).flatMap { i =>
      val a = 3 * i; val z = 3 * (i + 1)
      Seq((a, a + 1), (a, a + 2), (a + 1, z), (a + 2, z))
    }
    EdgeList(3 * k + 1, es.toArray)
  }

  /** `count` uniform random pairs `s != t` (every pair of a connected graph
    * is connected).
    */
  def queryPairs(n: Int, count: Int, seed: Long): Array[(Int, Int)] = {
    val rnd = new Random(seed)
    Array.fill(count) {
      val s = rnd.nextInt(n)
      var t = rnd.nextInt(n)
      while (t == s) t = rnd.nextInt(n)
      (s, t)
    }
  }

  /** Keep the largest connected component, renumbering its vertices
    * `0 until n'` in their original order.
    */
  private def largestComponent(n: Int, edges: Array[(Int, Int)]): EdgeList = {
    val parent = Array.tabulate(n)(identity)
    def find(x: Int): Int = {
      var r = x
      while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }
      r
    }
    edges.foreach { case (a, b) => parent(find(a)) = find(b) }
    val size = new Array[Int](n)
    (0 until n).foreach(v => size(find(v)) += 1)
    val big = (0 until n).maxBy(size)
    val newId = Array.fill(n)(-1)
    var k = 0
    (0 until n).foreach(v => if (find(v) == big) { newId(v) = k; k += 1 })
    val kept = edges.collect { case (a, b) if newId(a) >= 0 => (newId(a), newId(b)) }
    EdgeList(k, kept)
  }
}
