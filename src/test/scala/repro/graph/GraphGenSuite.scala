package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

class GraphGenSuite extends AnyFunSuite {

  test("erdosRenyi is deterministic in seed") {
    val a = GraphGen.erdosRenyi(50, 120, seed = 7)
    val b = GraphGen.erdosRenyi(50, 120, seed = 7)
    assert(a.edges.toSeq == b.edges.toSeq)
  }

  test("erdosRenyi hits the requested edge count on sparse graphs") {
    val g = GraphGen.erdosRenyi(100, 200, seed = 1)
    assert(g.m == 200)
  }

  test("chungLu is deterministic in seed") {
    val a = GraphGen.chungLu(200, 8.0, 2.5, seed = 3)
    val b = GraphGen.chungLu(200, 8.0, 2.5, seed = 3)
    assert(a.edges.toSeq == b.edges.toSeq)
  }

  test("chungLu approximates the requested average degree") {
    val g = GraphGen.chungLu(500, 10.0, 2.5, seed = 2)
    assert(math.abs(g.avgDeg - 10.0) < 2.0, s"avgDeg=${g.avgDeg}")
  }

  test("chungLu produces a skewed degree distribution") {
    val g = GraphGen.chungLu(500, 10.0, 2.3, seed = 2)
    val degs = (0 until g.n).map(g.deg).sorted
    assert(degs.last > 4 * degs(g.n / 2), s"max=${degs.last} median=${degs(g.n / 2)}")
  }

  test("wattsStrogatz has the lattice edge budget") {
    val g = GraphGen.wattsStrogatz(60, 3, 0.1, seed = 4)
    assert(g.m <= 180 && g.m > 150)
  }

  test("roadGrid is connected") {
    val g = GraphGen.roadGrid(10, 10, drop = 0.15, seed = 6)
    val (d, _) = Reference.bfsSpc(g, 0)
    assert(d.forall(_ >= 0))
  }

  test("roadGrid has low average degree and substantial diameter") {
    val g = GraphGen.roadGrid(15, 15, drop = 0.1, seed = 8)
    assert(g.avgDeg < 5.0)
    assert(TestUtil.diameter(g) >= 10)
  }

  test("randomTree has n-1 edges and unique paths") {
    val g = GraphGen.randomTree(40, seed = 5)
    assert(g.m == 39)
    val (_, c) = Reference.allPairs(g)
    for (s <- 0 until g.n; t <- 0 until g.n) assert(c(s)(t) == 1L)
  }

  test("path, cycle, complete, star shapes") {
    assert(GraphGen.path(5).m == 4)
    assert(GraphGen.cycle(5).m == 5)
    assert(GraphGen.complete(5).m == 10)
    assert(GraphGen.star(5).m == 4)
  }

  test("barbell joins two cliques by a path") {
    val g = GraphGen.barbell(4, 3)
    assert(g.n == 11)
    assert(g.m == 2 * 6 + 4)
  }

  test("largestComponent keeps only one component") {
    val g = Graph.fromEdges(7, Seq((0, 1), (1, 2), (2, 0), (3, 4), (5, 6)))
    val lc = GraphGen.largestComponent(g)
    assert(lc.n == 3 && lc.m == 3)
  }

  test("largestComponent of a connected graph is the graph itself") {
    val g = GraphGen.cycle(12)
    val lc = GraphGen.largestComponent(g)
    assert(lc.n == 12 && lc.m == 12)
  }

  test("datasetSpecs carries the paper's 10 datasets in order") {
    assert(GraphGen.datasetSpecs.map(_.key) ==
      Seq("FB", "GW", "WI", "GO", "DB", "BE", "YT", "PE", "FL", "IN"))
    assert(GraphGen.datasetSpecs.map(_.paperAvgDeg) ==
      Seq(25.6, 9.7, 34.3, 9.9, 8.1, 19.4, 5.8, 50.3, 19.8, 40.7))
  }

  for (spec <- GraphGen.datasetSpecs) {
    test(s"analogue ${spec.key} is connected, deterministic, near the paper's avg degree") {
      val g = GraphGen.analogue(spec, scale = 0.02) // small for unit tests
      val g2 = GraphGen.analogue(spec, scale = 0.02)
      assert(g.n == g2.n && g.m == g2.m)
      val (d, _) = Reference.bfsSpc(g, 0)
      assert(d.forall(_ >= 0), "analogue must be connected")
      // largest-component trimming biases the mean up a little; allow slack
      assert(g.avgDeg > spec.paperAvgDeg * 0.5 && g.avgDeg < spec.paperAvgDeg * 2.0,
        s"avgDeg=${g.avgDeg} paper=${spec.paperAvgDeg}")
    }
  }

  test("analogueSize clamps into [2000, 12000]") {
    import GraphGen._
    assert(analogueSize(datasetSpecs.head) == 2000) // FB: 637 -> 2000
    assert(analogueSize(datasetSpecs.last) == 12000) // IN: 74148 -> 12000
  }
}
