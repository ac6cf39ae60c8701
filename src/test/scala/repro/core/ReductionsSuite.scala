package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.{Graph, GraphGen, Reference}
import repro.order.VertexOrder

class ReductionsSuite extends AnyFunSuite {
  import Reductions._

  // ---------------------------------------------------------------- 1-shell

  test("1-shell peels nothing on a cycle") {
    val os = new OneShell(GraphGen.cycle(8))
    assert(os.inCore.forall(identity))
    assert(os.coreGraph.n == 8)
  }

  test("1-shell peels a tree down to one root") {
    val os = new OneShell(GraphGen.randomTree(20, seed = 1))
    assert(os.coreGraph.n == 1)
  }

  test("1-shell anchors every peeled vertex at a core vertex") {
    val g = GraphGen.barbell(4, 3)
    val os = new OneShell(g)
    for (v <- 0 until g.n) {
      assert(os.inCore(os.shr(v)), s"anchor of $v must be core")
      if (os.inCore(v)) assert(os.shr(v) == v)
    }
  }

  test("1-shell core of a barbell is the two cliques plus the path") {
    val g = GraphGen.barbell(4, 3)
    val os = new OneShell(g)
    assert(os.coreGraph.n == g.n) // no degree-1 vertices here
  }

  test("1-shell + index answers every SPC like the reference") {
    for (seed <- 0 until 8) {
      // attach random trees to a random core
      val rnd = new scala.util.Random(seed)
      val core = GraphGen.erdosRenyi(15, 30, seed)
      val extra = 15 + rnd.nextInt(15)
      val es = core.edges.toBuffer
      for (v <- 15 until 15 + extra) es += ((rnd.nextInt(v), v))
      val g = Graph.fromEdges(15 + extra, es.toSeq)
      val os = new OneShell(g)
      val coreIdx = Pspc.build(os.coreGraph, VertexOrder.degreeOrder(os.coreGraph))._1
      val (_, cnt) = Reference.allPairs(g)
      for (s <- 0 until g.n; t <- 0 until g.n) {
        val expected = if (s == t) 1L else cnt(s)(t)
        assert(os.spc(coreIdx, s, t) == expected, s"seed=$seed pair ($s,$t)")
      }
    }
  }

  test("1-shell reduces the index size on tree-heavy graphs") {
    val rnd = new scala.util.Random(5)
    val core = GraphGen.erdosRenyi(20, 40, 5)
    val es = core.edges.toBuffer
    for (v <- 20 until 120) es += ((rnd.nextInt(v), v))
    val g = Graph.fromEdges(120, es.toSeq)
    val os = new OneShell(g)
    val full = Pspc.build(g, VertexOrder.degreeOrder(g))._1
    val reduced = Pspc.build(os.coreGraph, VertexOrder.degreeOrder(os.coreGraph))._1
    assert(reduced.entryCount < full.entryCount)
  }

  // ------------------------------------------------- equivalence reduction

  test("equivalence groups non-adjacent twins") {
    // C4: both diagonal pairs {1,2} and {0,3} are non-adjacent twins
    val g = Graph.fromEdges(4, Seq((0, 1), (0, 2), (1, 3), (2, 3)))
    val eq = new EquivReduction(g)
    assert(eq.rep(1) == eq.rep(2))
    assert(eq.rep(0) == eq.rep(3))
    assert(eq.reducedGraph.n == 2)
    assert(eq.reducedGraph.weight.toSeq == Seq(2L, 2L))
  }

  test("equivalence groups adjacent twins") {
    // 1 and 2 adjacent, both connect to {0, 3}: closed neighborhoods equal
    val g = Graph.fromEdges(4, Seq((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
    val eq = new EquivReduction(g)
    assert(eq.rep(1) == eq.rep(2))
  }

  test("equivalence leaves distinguishable vertices alone") {
    val g = GraphGen.path(6)
    val eq = new EquivReduction(g)
    // interior path vertices all have distinct neighborhoods; only the two
    // leaves 0 and 5 have singleton neighborhoods, but different ones
    assert(eq.reducedGraph.n == 6)
  }

  test("equivalence on a star collapses all leaves") {
    val g = GraphGen.star(8)
    val eq = new EquivReduction(g)
    assert(eq.reducedGraph.n == 2)
    assert(eq.reducedGraph.weight.toSeq.sorted == Seq(1L, 7L))
  }

  test("equivalence on a clique collapses everything") {
    val g = GraphGen.complete(6)
    val eq = new EquivReduction(g)
    assert(eq.reducedGraph.n == 1)
    assert(eq.reducedGraph.weight(0) == 6L)
  }

  test("equivalence + weighted index answers every SPC like the reference") {
    val graphs = Seq(
      GraphGen.star(9),
      GraphGen.complete(5),
      Graph.fromEdges(6, Seq((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 0), (5, 0))),
      Graph.paperExample,
    ) ++ (0 until 8).map(TestUtil.randomGraph)
    for ((g, gi) <- graphs.zipWithIndex) {
      val eq = new EquivReduction(g)
      val rg = eq.reducedGraph
      val idx = Pspc.build(rg, VertexOrder.degreeOrder(rg))._1
      val (dist, cnt) = Reference.allPairs(g)
      for (s <- 0 until g.n; t <- 0 until g.n) {
        val (qd, qc) = eq.spc(idx, s, t)
        val ed = if (s == t) 0 else dist(s)(t)
        val ec = if (s == t) 1L else if (ed < 0) 0L else cnt(s)(t)
        assert(qd == ed && qc == ec, s"graph#$gi pair ($s,$t): got ($qd,$qc) want ($ed,$ec)")
      }
    }
  }

  test("equivalence reduction shrinks the index on twin-rich graphs") {
    val g = GraphGen.star(40)
    val eq = new EquivReduction(g)
    val full = Pspc.build(g, VertexOrder.degreeOrder(g))._1
    val red = Pspc.build(eq.reducedGraph, VertexOrder.degreeOrder(eq.reducedGraph))._1
    assert(red.entryCount < full.entryCount / 4)
  }

  test("1-shell composes with the equivalence reduction") {
    // star arms (1-shell prunes them) around a C4 core with twins
    val g = Graph.fromEdges(9,
      Seq((0, 1), (0, 2), (1, 3), (2, 3), // C4 core: {1,2} and {0,3} twins
          (3, 4), (4, 5), (0, 6), (6, 7), (6, 8)))
    val os = new OneShell(g)
    val eq = new EquivReduction(os.coreGraph)
    val rg = eq.reducedGraph
    val idx = Pspc.build(rg, VertexOrder.degreeOrder(rg))._1
    val (dist, cnt) = Reference.allPairs(g)
    for (s <- 0 until g.n; t <- 0 until g.n if s != t && dist(s)(t) >= 0) {
      // compose: map through the 1-shell anchors, then the equivalence reps
      val as = os.coreId(os.shr(s)); val at = os.coreId(os.shr(t))
      val got = if (os.shr(s) == os.shr(t)) 1L else eq.spc(idx, as, at)._2
      assert(got == cnt(s)(t), s"pair ($s,$t)")
    }
  }

  test("equivalence-reduced graphs build the same labels under PSPC and HP-SPC") {
    val g = GraphGen.star(12)
    val eq = new EquivReduction(g)
    val rg = eq.reducedGraph
    val order = VertexOrder.degreeOrder(rg)
    val local = Pspc.build(rg, order)._1
    // weighted CSR round-trips through the reduction: HP-SPC agrees too
    TestUtil.assertSameLabels(local, HpSpc.build(rg, order))
  }

  test("reductions compose with HP-SPC too") {
    val g = Graph.fromEdges(7, Seq((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6)))
    val eq = new EquivReduction(g)
    val rg = eq.reducedGraph
    val idx = HpSpc.build(rg, VertexOrder.degreeOrder(rg))
    val (dist, cnt) = Reference.allPairs(g)
    for (s <- 0 until g.n; t <- 0 until g.n if s != t && dist(s)(t) >= 0)
      assert(eq.spc(idx, s, t) == ((dist(s)(t), cnt(s)(t))), s"($s,$t)")
  }
}
