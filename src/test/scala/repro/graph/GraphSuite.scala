package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

class GraphSuite extends AnyFunSuite {

  test("fromEdges drops duplicates and self-loops") {
    val g = Graph.fromEdges(4, Seq((0, 1), (1, 0), (0, 1), (2, 2), (2, 3)))
    assert(g.m == 2)
    assert(g.nbr(0).toSeq == Seq(1))
    assert(g.nbr(2).toSeq == Seq(3))
  }

  test("fromEdges rejects out-of-range endpoints") {
    intercept[IllegalArgumentException](Graph.fromEdges(3, Seq((0, 5))))
  }

  test("degrees and average degree") {
    val g = GraphGen.star(5)
    assert(g.deg(0) == 4)
    (1 until 5).foreach(v => assert(g.deg(v) == 1))
    assert(math.abs(g.avgDeg - 2 * 4.0 / 5) < 1e-9)
  }

  test("neighbors are sorted") {
    val g = Graph.fromEdges(5, Seq((2, 4), (2, 0), (2, 3), (2, 1)))
    assert(g.nbr(2).toSeq == Seq(0, 1, 3, 4))
  }

  test("hasEdge agrees with nbr") {
    val g = TestUtil.randomGraph(1)
    for (u <- 0 until g.n; v <- 0 until g.n)
      assert(g.hasEdge(u, v) == g.nbr(u).contains(v), s"($u,$v)")
  }

  test("hasEdge is symmetric and irreflexive") {
    val g = TestUtil.randomGraph(2)
    for (u <- 0 until g.n) {
      assert(!g.hasEdge(u, u))
      for (v <- 0 until g.n) assert(g.hasEdge(u, v) == g.hasEdge(v, u))
    }
  }

  test("edges lists each undirected edge once with src < dst") {
    val g = TestUtil.randomGraph(3)
    val es = g.edges
    assert(es.length == g.m)
    assert(es.forall { case (u, v) => u < v })
    assert(es.distinct.length == es.length)
  }

  test("foreachNbr visits exactly deg(v) vertices") {
    val g = TestUtil.randomGraph(4)
    for (v <- 0 until g.n) {
      var c = 0
      g.foreachNbr(v)(_ => c += 1)
      assert(c == g.deg(v))
    }
  }

  test("diameter of path(8) is 7") { assert(TestUtil.diameter(GraphGen.path(8)) == 7) }
  test("diameter of cycle(9) is 4") { assert(TestUtil.diameter(GraphGen.cycle(9)) == 4) }
  test("diameter of complete(6) is 1") { assert(TestUtil.diameter(GraphGen.complete(6)) == 1) }
  test("diameter of star(10) is 2") { assert(TestUtil.diameter(GraphGen.star(10)) == 2) }

  test("paper example graph shape matches Table II distances") {
    val g = Graph.paperExample
    assert(g.n == 10)
    assert(g.m == 13)
    // spot-check distances implied by Table II labels
    val (d0, _) = Reference.bfsSpc(g, 0)
    assert(d0(7) == 3) // (v1,3,3) in L(v8)
    assert(d0(1) == 2) // (v1,2,2) in L(v2)
    val (d6, c6) = Reference.bfsSpc(g, 6)
    assert(d6(9) == 3 && c6(9) == 4) // SPC(v10,v7) = 4 per Example 1
  }

  test("inducedSubgraph keeps the right vertices and edges") {
    val g = Graph.paperExample
    val keep = Array.tabulate(g.n)(_ < 5)
    val (sub, oldId) = g.inducedSubgraph(keep)
    assert(sub.n == 5)
    assert(oldId.toSeq == Seq(0, 1, 2, 3, 4))
    for (u <- 0 until 5; v <- 0 until 5)
      assert(sub.hasEdge(u, v) == g.hasEdge(oldId(u), oldId(v)))
  }

  test("inducedSubgraph preserves weights") {
    val g = Graph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)), Array(2L, 3L, 4L, 5L))
    val (sub, oldId) = g.inducedSubgraph(Array(false, true, true, true))
    assert(sub.weight.toSeq == oldId.toSeq.map(g.weight(_)))
  }

  test("default weights are all 1") {
    val g = TestUtil.randomGraph(5)
    assert(g.weight.forall(_ == 1L))
  }

  test("paperExampleOrder is a permutation of all vertices") {
    val o = Graph.paperExampleOrder
    assert(o.sorted.toSeq == (0 until 10))
  }
}
