package repro

import repro.core.LabelIndex
import repro.graph.{Graph, GraphGen, Reference}

/** Shared fixtures and assertions for the test suites. */
object TestUtil {

  /** Named small graphs covering the structural corner cases. */
  def smallGraphs: Seq[(String, Graph)] = Seq(
    "single vertex" -> Graph.fromEdges(1, Nil),
    "single edge" -> Graph.fromEdges(2, Seq((0, 1))),
    "path(8)" -> GraphGen.path(8),
    "cycle(9)" -> GraphGen.cycle(9),
    "star(10)" -> GraphGen.star(10),
    "complete(6)" -> GraphGen.complete(6),
    "tree(30)" -> GraphGen.randomTree(30, seed = 3),
    "barbell(4,3)" -> GraphGen.barbell(4, 3),
    "paper fig2" -> Graph.paperExample,
    "grid road" -> GraphGen.roadGrid(6, 6, drop = 0.1, seed = 5),
    "two components" -> Graph.fromEdges(6, Seq((0, 1), (1, 2), (3, 4))),
    "watts-strogatz" -> GraphGen.wattsStrogatz(40, 2, 0.2, seed = 9),
  )

  /** Deterministic random graphs for property-style loops. */
  def randomGraph(seed: Int): Graph = {
    val rnd = new scala.util.Random(seed)
    val n = 20 + rnd.nextInt(80)
    val m = n + rnd.nextInt(3 * n)
    GraphGen.erdosRenyi(n, m, seed)
  }

  def randomPowerLaw(seed: Int): Graph =
    GraphGen.chungLu(60 + seed * 7 % 80, 6.0 + seed % 5, 2.3 + 0.05 * (seed % 6), seed)

  /** A path whose interior vertices weigh 2 and 5. Under the degree order
    * they are the hubs where interior pairs meet, so an index that drops
    * the weights miscounts those pairs.
    */
  def weightedPath: Graph = Graph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)), Array(1L, 2L, 5L, 1L))

  /** A disjoint union of `path(30)` (vertices 0..29), a 10x10 grid
    * (30..129) and an isolated vertex (130). Its components finish in
    * different rounds, and the isolated vertex is in no round's frontier.
    */
  def componentUnion: Graph = {
    val path = (0 until 29).map(i => (i, i + 1))
    def cell(r: Int, c: Int) = 30 + r * 10 + c
    val grid = for (r <- 0 until 10; c <- 0 until 10; (dr, dc) <- Seq((0, 1), (1, 0)) if r + dr < 10 && c + dc < 10)
      yield (cell(r, c), cell(r + dr, c + dc))
    Graph.fromEdges(131, path ++ grid)
  }

  /** `k` diamonds in a row: vertex `3i` joins vertex `3(i+1)` through the
    * two middle vertices `3i+1` and `3i+2`, so the end-to-end shortest-path
    * count is `2^k` at distance `2k`.
    */
  def diamondChain(k: Int): Graph =
    Graph.fromEdges(3 * k + 1, (0 until k).flatMap { i =>
      val a = 3 * i; val z = 3 * (i + 1)
      Seq((a, a + 1), (a, a + 2), (a + 1, z), (a + 2, z))
    })

  /** Exact eccentricity-based diameter of `g`: the largest BFS distance
    * between two vertices of one component — O(n·m), only for small graphs.
    */
  def diameter(g: Graph): Int = {
    val dist = new Array[Int](g.n)
    (0 until g.n).foldLeft(0) { (best, s) =>
      java.util.Arrays.fill(dist, -1)
      g.bfs(s, dist)
      math.max(best, dist.max)
    }
  }

  /** Assert the index answers every pair exactly like the BFS reference. */
  def assertIndexExact(g: Graph, idx: LabelIndex): Unit = {
    val (dist, cnt) = Reference.allPairs(g)
    var bad = List.empty[String]
    for (s <- 0 until g.n; t <- 0 until g.n if bad.size < 5) {
      val (qd, qc) = idx.query(s, t)
      val ed = dist(s)(t)
      val ec = if (ed < 0) 0L else cnt(s)(t)
      if (qd != ed || qc != ec)
        bad ::= s"pair ($s,$t): index=($qd,$qc) reference=($ed,$ec)"
    }
    assert(bad.isEmpty, s"index disagrees with BFS reference:\n${bad.mkString("\n")}")
  }

  /** Assert two indexes carry identical label multisets (paper Exp 2:
    * the PSPC index is invariant to threads/schedule/landmarks).
    */
  def assertSameLabels(a: LabelIndex, b: LabelIndex): Unit = {
    assert(a.n == b.n)
    val ca = a.canonical; val cb = b.canonical
    for (v <- 0 until a.n)
      assert(ca(v) == cb(v), s"labels differ at vertex $v:\n  a=${ca(v)}\n  b=${cb(v)}")
  }

  /** The paper's Table II, translated to 0-based vertex ids.
    * `expected(v)` = set of (hub, dist, count).
    */
  val tableII: Map[Int, Set[(Int, Int, Long)]] = Map(
    0 -> Set((0, 0, 1L)),
    1 -> Set((0, 2, 2L), (6, 2, 1L), (3, 1, 1L), (9, 1, 1L), (1, 0, 1L)),
    2 -> Set((0, 1, 1L), (6, 2, 1L), (2, 0, 1L)),
    3 -> Set((0, 1, 1L), (6, 1, 1L), (3, 0, 1L)),
    4 -> Set((0, 1, 1L), (6, 1, 1L), (4, 0, 1L)),
    5 -> Set((0, 2, 1L), (6, 1, 1L), (2, 1, 1L), (5, 0, 1L)),
    6 -> Set((0, 2, 2L), (6, 0, 1L)),
    7 -> Set((0, 3, 3L), (6, 1, 1L), (9, 2, 1L), (7, 0, 1L)),
    8 -> Set((0, 2, 1L), (6, 2, 1L), (3, 3, 1L), (9, 1, 1L), (7, 1, 1L), (8, 0, 1L)),
    9 -> Set((0, 1, 1L), (6, 3, 2L), (3, 2, 1L), (9, 0, 1L)),
  )
}
