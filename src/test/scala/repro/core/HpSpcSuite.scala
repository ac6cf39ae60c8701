package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.{Graph, GraphGen}
import repro.order.VertexOrder

class HpSpcSuite extends AnyFunSuite {

  test("reproduces the paper's Table II exactly on the Fig. 2 graph") {
    val g = Graph.paperExample
    val idx = HpSpc.build(g, Graph.paperExampleOrder)
    for (v <- 0 until 10)
      assert(idx.labelOf(v).toSet == TestUtil.tableII(v), s"L(v${v + 1})")
  }

  test("self label (v, 0, 1) exists for every vertex") {
    val g = TestUtil.randomGraph(20)
    val idx = HpSpc.build(g, VertexOrder.degreeOrder(g))
    for (v <- 0 until g.n) assert(idx.labelOf(v).contains((v, 0, 1L)))
  }

  test("every hub of v is ranked at least as high as v") {
    val g = TestUtil.randomGraph(21)
    val idx = HpSpc.build(g, VertexOrder.degreeOrder(g))
    for (v <- 0 until g.n; (h, _, _) <- idx.labelOf(v))
      assert(idx.rank(h) <= idx.rank(v), s"hub $h of $v")
  }

  test("label counts are exactly the trough-path counts") {
    val g = TestUtil.randomGraph(22)
    val order = VertexOrder.degreeOrder(g)
    val rank = VertexOrder.rankOf(order, g.n)
    val idx = HpSpc.build(g, order)
    for (v <- 0 until g.n; (h, d, c) <- idx.labelOf(v) if h != v) {
      val (td, tc) = repro.graph.Reference.troughCount(g, v, h, rank)
      assert(d == td && c == tc, s"label ($v <- $h)")
    }
  }

  test("labels omit pairs with no trough path") {
    val g = Graph.paperExample
    val idx = HpSpc.build(g, Graph.paperExampleOrder)
    // v5 -> v4 (ids 4 -> 3): no trough path (see ReferenceSuite)
    assert(!idx.labelOf(4).exists(_._1 == 3))
  }

  for ((name, g) <- TestUtil.smallGraphs) {
    test(s"all-pairs exactness on $name (degree order)") {
      TestUtil.assertIndexExact(g, HpSpc.build(g, VertexOrder.degreeOrder(g)))
    }
  }

  for (seed <- 0 until 10) {
    test(s"all-pairs exactness on random graph seed=$seed") {
      val g = TestUtil.randomGraph(seed)
      TestUtil.assertIndexExact(g, HpSpc.build(g, VertexOrder.degreeOrder(g)))
    }
  }

  for (seed <- 0 until 6) {
    test(s"all-pairs exactness on power-law graph seed=$seed") {
      val g = TestUtil.randomPowerLaw(seed)
      TestUtil.assertIndexExact(g, HpSpc.build(g, VertexOrder.degreeOrder(g)))
    }
  }

  for (seed <- 0 until 4) {
    test(s"all-pairs exactness under tree-decomposition order, seed=$seed") {
      val g = TestUtil.randomGraph(seed + 100)
      TestUtil.assertIndexExact(g, HpSpc.build(g, VertexOrder.treeDecompOrder(g)))
    }
  }

  for (seed <- 0 until 4) {
    test(s"all-pairs exactness under hybrid order, seed=$seed") {
      val g = TestUtil.randomGraph(seed + 200)
      TestUtil.assertIndexExact(g, HpSpc.build(g, VertexOrder.hybridOrder(g, delta = 3)))
    }
  }

  test("index is exact under an adversarial (worst) order: ascending degree") {
    val g = TestUtil.randomGraph(23)
    val order = VertexOrder.degreeOrder(g).reverse
    TestUtil.assertIndexExact(g, HpSpc.build(g, order))
  }

  test("significant-path order variant produces an exact index and a permutation") {
    val g = TestUtil.randomGraph(24)
    val (idx, order) = HpSpc.buildWithSignificantPathOrder(g)
    assert(order.sorted.toSeq == (0 until g.n))
    TestUtil.assertIndexExact(g, idx)
  }

  test("significant-path order starts at the highest-degree vertex") {
    val g = TestUtil.randomPowerLaw(1)
    val (_, order) = HpSpc.buildWithSignificantPathOrder(g)
    assert(g.deg(order.head) == (0 until g.n).map(g.deg).max)
  }

  test("weighted graph: labels honour interior multiplicities") {
    val g = TestUtil.weightedPath
    val idx = HpSpc.build(g, VertexOrder.degreeOrder(g))
    TestUtil.assertIndexExact(g, idx)
  }

  test("an order one slot too short or too long is rejected") {
    val g = GraphGen.path(6)
    for (order <- Seq(Array(0, 1, 2, 3, 4), Array(0, 1, 2, 3, 4, 5, 6))) {
      val e = intercept[IllegalArgumentException](HpSpc.build(g, order))
      assert(e.getMessage.contains(s"${order.length} slots for a graph of 6 vertices"))
    }
  }
}
