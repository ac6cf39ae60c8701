package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

class ReferenceSuite extends AnyFunSuite {

  test("bfsSpc on a path: one shortest path everywhere") {
    val g = GraphGen.path(6)
    val (d, c) = Reference.bfsSpc(g, 0)
    assert(d.toSeq == Seq(0, 1, 2, 3, 4, 5))
    assert(c.forall(_ == 1L))
  }

  test("bfsSpc on an even cycle: two shortest paths to the antipode") {
    val g = GraphGen.cycle(8)
    val (d, c) = Reference.bfsSpc(g, 0)
    assert(d(4) == 4 && c(4) == 2L)
    assert(d(3) == 3 && c(3) == 1L)
  }

  test("bfsSpc marks unreachable vertices with dist -1, count 0") {
    val g = Graph.fromEdges(4, Seq((0, 1)))
    val (d, c) = Reference.bfsSpc(g, 0)
    assert(d(2) == -1 && c(2) == 0L)
    assert(d(3) == -1 && c(3) == 0L)
  }

  test("bfsSpc counts the paper's Example 1: SPC(v10, v7) = 4 at distance 3") {
    val g = Graph.paperExample
    val (d, c) = Reference.bfsSpc(g, 9)
    assert(d(6) == 3 && c(6) == 4L)
  }

  test("bfsSpcExact counts 2^64 paths along 64 diamonds, where bfsSpc fails loudly") {
    val g = TestUtil.diamondChain(64)
    val (d, c) = Reference.bfsSpcExact(g, 0)
    for (i <- 0 to 64) assert(d(3 * i) == 2 * i && c(3 * i) == BigInt(2).pow(i), s"junction $i")
    intercept[ArithmeticException](Reference.bfsSpc(g, 0))
    val (d62, c62) = Reference.bfsSpc(g, 6)
    assert(d62(192) == 124 && c62(192) == 1L << 62)
  }

  test("complete graph: every distinct pair has one shortest path of length 1") {
    val g = GraphGen.complete(7)
    val (d, c) = Reference.allPairs(g)
    for (s <- 0 until 7; t <- 0 until 7 if s != t) {
      assert(d(s)(t) == 1 && c(s)(t) == 1L)
    }
  }

  test("grid counting: (0,0) to (i,j) has binomial(i+j, i) shortest paths") {
    // full 4x4 grid, no perturbation
    def id(r: Int, c: Int) = r * 4 + c
    val es = for {
      r <- 0 until 4; c <- 0 until 4
      e <- Seq((r, c, r, c + 1), (r, c, r + 1, c)) if e._3 < 4 && e._4 < 4
    } yield (id(e._1, e._2), id(e._3, e._4))
    val g = Graph.fromEdges(16, es)
    val (_, c0) = Reference.bfsSpc(g, 0)
    def binom(n: Int, k: Int): Long =
      if (k == 0 || k == n) 1L else binom(n - 1, k - 1) + binom(n - 1, k)
    for (r <- 0 until 4; c <- 0 until 4)
      assert(c0(id(r, c)) == binom(r + c, r), s"cell ($r,$c)")
  }

  for (seed <- 0 until 12) {
    test(s"bfsSpc count equals exhaustive path enumeration (random graph seed=$seed)") {
      val rnd = new scala.util.Random(seed)
      val g = GraphGen.erdosRenyi(12 + rnd.nextInt(8), 20 + rnd.nextInt(15), seed)
      val (d, c) = Reference.allPairs(g)
      for (s <- 0 until g.n; t <- 0 until g.n) {
        val paths = Reference.enumerateShortestPaths(g, s, t)
        if (d(s)(t) < 0) assert(paths.isEmpty)
        else {
          assert(paths.size.toLong == c(s)(t), s"pair ($s,$t)")
          paths.foreach(p => assert(p.length == d(s)(t) + 1))
        }
      }
    }
  }

  test("weighted bfsSpc equals unweighted counting on an expanded graph") {
    // reduced graph: 0 -(w)- 1 -(w)- 2 where vertex 1 has weight 3
    val reduced = Graph.fromEdges(3, Seq((0, 1), (1, 2)), Array(1L, 3L, 1L))
    val (_, c) = Reference.bfsSpc(reduced, 0)
    assert(c(2) == 3L) // three parallel members of class 1
    // expanded: vertex 1 replaced by three twins
    val expanded = Graph.fromEdges(5, Seq((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)))
    val (_, ce) = Reference.bfsSpc(expanded, 0)
    assert(ce(4) == 3L)
  }

  test("weight of the source and target does not affect counts") {
    val g = Graph.fromEdges(3, Seq((0, 1), (1, 2)), Array(5L, 1L, 7L))
    val (_, c) = Reference.bfsSpc(g, 0)
    assert(c(2) == 1L)
  }

  test("troughCount: highest-ranked vertex on all paths gets the full count") {
    val g = Graph.paperExample
    val rank = Array.tabulate(10)(identity) // vertex id = rank
    // v8 (id 7) -> v1 (id 0): 3 shortest paths, all trough since v1 is top
    val (d, c) = Reference.troughCount(g, 7, 0, rank)
    assert(d == 3 && c == 3L)
  }

  test("troughCount: paths through higher-ranked vertices are excluded") {
    import repro.order.VertexOrder
    val g = Graph.paperExample
    val rank = VertexOrder.rankOf(Graph.paperExampleOrder, g.n)
    // L(v10) has (v7, 3, 2): of the 4 shortest v10-v7 paths, 2 avoid v1
    val (d, c) = Reference.troughCount(g, 9, 6, rank)
    assert(d == 3 && c == 2L)
  }

  test("troughCount is zero when no trough path exists") {
    import repro.order.VertexOrder
    val g = Graph.paperExample
    val rank = VertexOrder.rankOf(Graph.paperExampleOrder, g.n)
    // v5 -> v4 (ids 4 -> 3): both shortest paths pass v1 or v7, ranked above v4
    val (d, c) = Reference.troughCount(g, 4, 3, rank)
    assert(d == 2 && c == 0L)
  }

  test("troughCount against Table II on every labelled pair") {
    import repro.order.VertexOrder
    val g = Graph.paperExample
    val rank = VertexOrder.rankOf(Graph.paperExampleOrder, g.n)
    for ((v, entries) <- TestUtil.tableII; (h, dd, cc) <- entries if h != v) {
      val (d, c) = Reference.troughCount(g, v, h, rank)
      assert(d == dd && c == cc, s"label ($v <- $h)")
    }
  }
}
