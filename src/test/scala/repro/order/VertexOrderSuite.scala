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

  // Elimination orders recorded from the HashSet / boxed-PriorityQueue
  // implementation. Min-degree elimination breaks degree ties by the lowest
  // vertex id; a changed tie-break or fill-in rule shows up here, where the
  // shape-only tests above cannot see it.
  private val goldenRoad = GraphGen.roadGrid(12, 12, 0.12, 3)
  private val goldenTree = GraphGen.randomTree(60, 5)
  private val roadTreeDecomp = Seq(
    128, 115, 102, 87, 83, 81, 78, 76, 68, 65, 40, 30, 19, 7, 63, 50, 37, 110, 99, 96, 91, 57,
    44, 39, 137, 124, 123, 113, 92, 59, 103, 86, 54, 14, 135, 126, 112, 106, 89, 74, 73, 67, 64,
    61, 33, 32, 28, 18, 17, 16, 121, 93, 80, 72, 70, 56, 51, 21, 5, 139, 127, 125, 122, 114,
    111, 109, 105, 101, 90, 77, 66, 62, 53, 49, 42, 34, 31, 27, 138, 136, 134, 117, 129, 118,
    131, 130, 116, 108, 104, 100, 98, 94, 88, 85, 79, 75, 71, 69, 60, 58, 55, 52, 45, 41, 38,
    29, 13, 25, 24, 22, 20, 15, 9, 6, 4, 143, 142, 141, 140, 133, 120, 119, 97, 95, 84, 82, 48,
    47, 46, 43, 36, 35, 26, 10, 23, 12, 11, 8, 3, 2, 132, 107, 1, 0)
  private val roadHybrid4 = Seq(
    13, 128, 115, 102, 87, 78, 76, 68, 65, 59, 57, 40, 39, 14, 96, 86, 74, 62, 51, 91, 44, 30,
    135, 123, 110, 124, 113, 83, 81, 19, 7, 99, 92, 64, 54, 49, 112, 103, 89, 67, 33, 32, 28,
    18, 17, 16, 137, 126, 121, 106, 93, 80, 73, 70, 63, 56, 50, 21, 5, 125, 122, 114, 111, 109,
    105, 101, 90, 77, 72, 66, 61, 53, 42, 38, 34, 31, 27, 138, 136, 134, 118, 129, 131, 130,
    127, 117, 108, 104, 100, 98, 94, 88, 85, 79, 75, 71, 69, 60, 58, 55, 52, 45, 41, 37, 29, 22,
    20, 15, 9, 6, 4, 143, 142, 141, 139, 133, 120, 119, 116, 97, 95, 84, 82, 48, 47, 46, 43, 25,
    36, 35, 26, 24, 10, 23, 11, 8, 3, 2, 140, 132, 107, 12, 1, 0)
  private val treeTreeDecomp = Seq(
    59, 3, 2, 0, 1, 7, 18, 58, 56, 57, 23, 28, 31, 53, 55, 17, 20, 29, 54, 52, 11, 13, 51, 5, 6,
    45, 50, 49, 8, 9, 34, 48, 47, 46, 44, 19, 43, 42, 41, 22, 33, 40, 4, 39, 37, 38, 26, 36, 12,
    35, 21, 32, 30, 27, 25, 24, 16, 15, 14, 10)
  private val treeHybrid4 = Seq(
    13, 2, 8, 20, 29, 58, 18, 7, 1, 0, 56, 57, 59, 3, 23, 28, 31, 53, 55, 5, 6, 45, 50, 46, 22,
    33, 40, 38, 37, 12, 35, 48, 34, 21, 32, 27, 36, 26, 43, 19, 39, 4, 14, 25, 11, 10, 9, 54,
    52, 51, 49, 47, 44, 42, 41, 30, 24, 17, 16, 15)

  test("treeDecompOrder matches the recorded order on a road grid and a random tree") {
    assert(VertexOrder.treeDecompOrder(goldenRoad).toSeq == roadTreeDecomp)
    assert(VertexOrder.treeDecompOrder(goldenTree).toSeq == treeTreeDecomp)
  }

  test("hybridOrder(_, 4) matches the recorded order on a road grid and a random tree") {
    assert(VertexOrder.hybridOrder(goldenRoad, 4).toSeq == roadHybrid4)
    assert(VertexOrder.hybridOrder(goldenTree, 4).toSeq == treeHybrid4)
  }
}
