package repro.graph

import scala.collection.mutable
import scala.util.Random

/** Deterministic synthetic graph generators.
  *
  * The paper evaluates on 10 real small-world graphs (Table III). Those are
  * not downloadable in this sealed environment, so `analogues` generates a
  * scaled-down deterministic stand-in per dataset with the paper's average
  * degree and a matching degree-distribution shape (DESIGN.md §4–5). All
  * generators are pure functions of their parameters and `seed`.
  */
object GraphGen {

  /** Erdős–Rényi G(n, m): `m` uniform random edges. */
  def erdosRenyi(n: Int, m: Int, seed: Long): Graph = {
    val rnd = new Random(seed)
    val es = mutable.HashSet.empty[(Int, Int)]
    var guard = 0
    while (es.size < m && guard < 50 * m) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      if (a != b) es += (if (a < b) (a, b) else (b, a))
      guard += 1
    }
    Graph.fromEdges(n, es.toSeq.sorted)
  }

  /** Chung-Lu power-law graph: expected degree of vertex `i` follows
    * `w_i ∝ (i + i0)^(-1/(gamma-1))`, scaled so the expected average degree
    * is `avgDeg`. Edges are sampled by the weighted-pick construction
    * (pick both endpoints proportionally to weight), which preserves the
    * heavy-tailed hub structure that drives 2-hop labeling behavior.
    */
  def chungLu(n: Int, avgDeg: Double, gamma: Double, seed: Long): Graph = {
    val rnd = new Random(seed)
    val exp = 1.0 / (gamma - 1.0)
    val w = Array.tabulate(n)(i => math.pow(i + 10.0, -exp))
    val sumW = w.sum
    // cumulative table for O(log n) weighted sampling
    val cum = new Array[Double](n)
    var acc = 0.0
    var i = 0
    while (i < n) { acc += w(i); cum(i) = acc; i += 1 }
    def pick(): Int = {
      val x = rnd.nextDouble() * sumW
      var lo = 0; var hi = n - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cum(mid) < x) lo = mid + 1 else hi = mid
      }
      lo
    }
    val target = (avgDeg * n / 2).toInt
    val es = mutable.HashSet.empty[(Int, Int)]
    var guard = 0
    while (es.size < target && guard < 60 * target) {
      val a = pick(); val b = pick()
      if (a != b) es += (if (a < b) (a, b) else (b, a))
      guard += 1
    }
    Graph.fromEdges(n, es.toSeq.sorted)
  }

  /** Watts-Strogatz small world: ring lattice with `k` nearest neighbors
    * per side, each edge rewired with probability `beta`.
    */
  def wattsStrogatz(n: Int, k: Int, beta: Double, seed: Long): Graph = {
    val rnd = new Random(seed)
    val es = mutable.HashSet.empty[(Int, Int)]
    for (i <- 0 until n; j <- 1 to k) {
      var b = (i + j) % n
      if (rnd.nextDouble() < beta) {
        var t = rnd.nextInt(n)
        var guard = 0
        while ((t == i || es.contains(if (i < t) (i, t) else (t, i))) && guard < 20) {
          t = rnd.nextInt(n); guard += 1
        }
        b = t
      }
      if (b != i) es += (if (i < b) (i, b) else (b, i))
    }
    Graph.fromEdges(n, es.toSeq.sorted)
  }

  /** Perturbed grid — the road-network stand-in: `rows × cols` lattice with
    * a fraction `drop` of edges removed and a few long-range shortcuts.
    * Low degree, high diameter, tree-like fringe: the regime where the
    * tree-decomposition order beats the degree order.
    */
  def roadGrid(rows: Int, cols: Int, drop: Double, seed: Long): Graph = {
    val rnd = new Random(seed)
    val n = rows * cols
    def id(r: Int, c: Int) = r * cols + c
    val es = mutable.ArrayBuffer.empty[(Int, Int)]
    for (r <- 0 until rows; c <- 0 until cols) {
      if (c + 1 < cols && rnd.nextDouble() >= drop) es += ((id(r, c), id(r, c + 1)))
      if (r + 1 < rows && rnd.nextDouble() >= drop) es += ((id(r, c), id(r + 1, c)))
    }
    // a handful of shortcuts so the graph stays connected-ish and has a core
    for (_ <- 0 until math.max(2, n / 50)) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      if (a != b) es += (if (a < b) (a, b) else (b, a))
    }
    largestComponent(Graph.fromEdges(n, es.toSeq))
  }

  /** Balanced random tree on `n` vertices (every SPC is 1). */
  def randomTree(n: Int, seed: Long): Graph = {
    val rnd = new Random(seed)
    Graph.fromEdges(n, (1 until n).map(v => (rnd.nextInt(v), v)))
  }

  def path(n: Int): Graph = Graph.fromEdges(n, (0 until n - 1).map(i => (i, i + 1)))

  def cycle(n: Int): Graph = Graph.fromEdges(n, (0 until n).map(i => (i, (i + 1) % n)))

  def complete(n: Int): Graph =
    Graph.fromEdges(n, for (i <- 0 until n; j <- i + 1 until n) yield (i, j))

  def star(n: Int): Graph = Graph.fromEdges(n, (1 until n).map(i => (0, i)))

  /** Two cliques of size `k` joined by a path of length `len`. */
  def barbell(k: Int, len: Int): Graph = {
    val es = mutable.ArrayBuffer.empty[(Int, Int)]
    for (i <- 0 until k; j <- i + 1 until k) { es += ((i, j)); es += ((k + len + i, k + len + j)) }
    val pathIds = (k - 1) +: (0 until len).map(k + _) :+ (k + len)
    for (i <- 0 until pathIds.size - 1) es += ((pathIds(i), pathIds(i + 1)))
    Graph.fromEdges(2 * k + len, es.toSeq)
  }

  /** Restrict to the largest connected component (relabelled compactly). */
  def largestComponent(g: Graph): Graph = {
    // one search per component; the first largest one (by lowest vertex) wins
    val seen = Array.fill(g.n)(-1)
    var root = 0; var best = 0
    for (v <- 0 until g.n if seen(v) < 0) {
      val size = g.bfs(v, seen)
      if (size > best) { best = size; root = v }
    }
    val dist = Array.fill(g.n)(-1)
    g.bfs(root, dist)
    g.inducedSubgraph(dist.map(_ >= 0))._1
  }

  /** One synthetic analogue of a paper dataset (DESIGN.md §5). */
  final case class DatasetSpec(
      key: String,
      paperName: String,
      paperV: Long,
      paperE: Long,
      paperAvgDeg: Double,
      gamma: Double, // degree-tail exponent: 2.5 social, 2.1 web
  )

  /** The paper's Table III datasets, in paper order. */
  val datasetSpecs: Seq[DatasetSpec] = Seq(
    DatasetSpec("FB", "Facebook", 63731L, 817035L, 25.6, 2.5),
    DatasetSpec("GW", "Gowalla", 196591L, 950327L, 9.7, 2.5),
    DatasetSpec("WI", "WikiConflict", 118100L, 2027871L, 34.3, 2.5),
    DatasetSpec("GO", "Google", 875713L, 4322051L, 9.9, 2.1),
    DatasetSpec("DB", "DBLP", 1314050L, 5326414L, 8.1, 2.5),
    DatasetSpec("BE", "Berkstan", 685230L, 6649470L, 19.4, 2.1),
    DatasetSpec("YT", "Youtube", 3223589L, 9375374L, 5.8, 2.5),
    DatasetSpec("PE", "Petster", 623766L, 15695166L, 50.3, 2.5),
    DatasetSpec("FL", "Flickr", 2302925L, 22838276L, 19.8, 2.5),
    DatasetSpec("IN", "Indochina", 7414866L, 150984819L, 40.7, 2.1),
  )

  /** Scaled vertex count for an analogue: `paper |V| / 100`, clamped. */
  def analogueSize(spec: DatasetSpec, scale: Double = 1.0): Int =
    math.min(12000, math.max(2000, (spec.paperV / 100 * scale).toInt))

  /** Deterministic analogue graph for one paper dataset. */
  def analogue(spec: DatasetSpec, scale: Double = 1.0): Graph = {
    val n = analogueSize(spec, scale)
    largestComponent(chungLu(n, spec.paperAvgDeg, spec.gamma, seed = spec.key.hashCode.toLong))
  }
}
