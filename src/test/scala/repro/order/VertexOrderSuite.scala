package repro.order

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.{Graph, GraphGen}

class VertexOrderSuite extends AnyFunSuite {

  test("rankOf inverts an order") {
    val order = Array(3, 1, 0, 2)
    val rank = VertexOrder.rankOf(order, 4)
    assert(rank.toSeq == Seq(2, 1, 3, 0))
    for (r <- order.indices) assert(rank(order(r)) == r)
  }

  test("rankOf rejects an order that is not a permutation") {
    val dup = intercept[IllegalArgumentException](VertexOrder.rankOf(Array(3, 1, 3, 0), 4))
    assert(dup.getMessage.contains("slot 2 holds 3"))
    val out = intercept[IllegalArgumentException](VertexOrder.rankOf(Array(0, 4, 1, 2), 4))
    assert(out.getMessage.contains("slot 1 holds 4"))
    val neg = intercept[IllegalArgumentException](VertexOrder.rankOf(Array(0, 1, -1), 3))
    assert(neg.getMessage.contains("slot 2 holds -1"))
    val short = intercept[IllegalArgumentException](VertexOrder.rankOf(Array(1, 0, 2), 4))
    assert(short.getMessage.contains("3 slots for a graph of 4 vertices"))
    val long = intercept[IllegalArgumentException](VertexOrder.rankOf(Array(1, 0, 2, 3, 4), 4))
    assert(long.getMessage.contains("5 slots for a graph of 4 vertices"))
  }

  test("degreeOrder ranks the star center first") {
    val g = GraphGen.star(8)
    assert(VertexOrder.degreeOrder(g).head == 0)
  }

  test("degreeOrder is a permutation sorted by descending degree") {
    val g = TestUtil.randomGraph(10)
    val order = VertexOrder.degreeOrder(g)
    assert(order.sorted.toSeq == (0 until g.n))
    for (i <- 1 until order.length) assert(g.deg(order(i - 1)) >= g.deg(order(i)))
  }

  test("degreeOrder breaks ties by ascending vertex id") {
    val g = GraphGen.cycle(5) // all degree 2
    assert(VertexOrder.degreeOrder(g).toSeq == Seq(0, 1, 2, 3, 4))
  }

  test("treeDecompOrder is a permutation") {
    val g = TestUtil.randomGraph(11)
    val order = VertexOrder.treeDecompOrder(g)
    assert(order.sorted.toSeq == (0 until g.n))
  }

  test("treeDecompOrder on a path ranks an interior separator highest") {
    val g = GraphGen.path(9)
    val order = VertexOrder.treeDecompOrder(g)
    // endpoints are eliminated first, so they carry the lowest ranks
    assert(order.last == 0 || order.last == 8 || g.deg(order.last) == 1)
    val rank = VertexOrder.rankOf(order, g.n)
    assert(rank(0) > rank(4) || rank(8) > rank(4))
  }

  test("treeDecompOrder on a star ranks the center in the top two") {
    // min-degree elimination strips leaves until the star is a single edge;
    // the center is eliminated second-to-last, so its rank is 0 or 1
    val g = GraphGen.star(9)
    val rank = VertexOrder.rankOf(VertexOrder.treeDecompOrder(g), g.n)
    assert(rank(0) <= 1)
  }

  test("treeDecompOrder on a tree eliminates some leaf first") {
    val g = GraphGen.randomTree(25, seed = 2)
    val order = VertexOrder.treeDecompOrder(g)
    // the first eliminated vertex (lowest rank, i.e. last in the order)
    // must be a minimum-degree vertex — a leaf on a tree
    assert(g.deg(order.last) == 1)
    assert(order.sorted.toSeq == (0 until g.n))
  }

  test("hybridOrder puts all core vertices above all fringe vertices") {
    val g = GraphGen.analogue(GraphGen.datasetSpecs.head, scale = 0.01)
    val delta = 5
    val order = VertexOrder.hybridOrder(g, delta)
    assert(order.sorted.toSeq == (0 until g.n))
    val firstFringe = order.indexWhere(g.deg(_) <= delta)
    if (firstFringe >= 0)
      order.drop(firstFringe).foreach(v => assert(g.deg(v) <= delta))
  }

  test("hybridOrder with delta = 0 equals pure tree-decomposition on degree<=0 fringe") {
    val g = GraphGen.cycle(6)
    // all degrees are 2 > 0, so everything is core -> degree order
    assert(VertexOrder.hybridOrder(g, 0).toSeq == VertexOrder.degreeOrder(g).toSeq)
  }

  test("hybridOrder with huge delta reduces to tree-decomposition order") {
    val g = TestUtil.randomGraph(12)
    val order = VertexOrder.hybridOrder(g, Int.MaxValue)
    assert(order.sorted.toSeq == (0 until g.n))
    assert(order.toSeq == VertexOrder.treeDecompOrder(g).toSeq)
  }

  test("nextSignificantHub picks from the significant path") {
    // star: root 0, BFS tree has all leaves as children
    val g = GraphGen.star(6)
    val parent = Array(-1, 0, 0, 0, 0, 0)
    val des = Array(6, 1, 1, 1, 1, 1)
    val ranked = Array(true, false, false, false, false, false)
    val nxt = VertexOrder.nextSignificantHub(g, 0, parent, des, ranked)
    assert(nxt >= 1 && nxt <= 5)
  }

  test("nextSignificantHub falls back to highest-degree unranked vertex") {
    val g = GraphGen.star(6)
    val parent = Array.fill(6)(-1) // empty tree
    val des = Array.fill(6)(0)
    val ranked = Array(false, true, true, true, true, true)
    assert(VertexOrder.nextSignificantHub(g, 1, parent, des, ranked) == 0)
  }
}
