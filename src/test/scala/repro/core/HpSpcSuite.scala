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

  // Significant-path orders and entry counts recorded from the builder that
  // refilled `parent`/`des` on all n vertices per hub and scanned all n for
  // the next one. The tree's tail of ascending leaf ids is the highest-degree
  // fallback firing; a changed tie-break or fallback shows up here.
  private val goldenSignificantPath = Seq(
    (GraphGen.roadGrid(12, 12, 0.12, 3), 3226L, Seq(
      13, 128, 116, 103, 91, 79, 78, 66, 54, 42, 41, 39, 27, 28, 40, 64, 76, 109, 110, 98, 86, 87,
      75, 63, 51, 49, 37, 25, 15, 17, 18, 21, 20, 44, 56, 68, 81, 69, 57, 45, 32, 33, 35, 47, 59,
      106, 94, 95, 71, 70, 58, 14, 2, 22, 10, 6, 7, 19, 30, 31, 43, 16, 3, 4, 5, 34, 46, 50, 60,
      72, 84, 122, 111, 112, 113, 101, 114, 126, 125, 124, 123, 136, 135, 121, 120, 61, 73, 85,
      96, 97, 62, 74, 65, 77, 90, 89, 88, 80, 93, 92, 104, 105, 99, 100, 102, 115, 138, 127, 139,
      140, 118, 117, 130, 129, 141, 131, 143, 142, 9, 8, 24, 12, 29, 38, 52, 53, 55, 67, 83, 82,
      108, 133, 132, 134, 137, 1, 0, 11, 23, 26, 36, 48, 119, 107)),
    (GraphGen.chungLu(200, 6.0, 2.5, 7), 6328L, Seq(
      2, 4, 1, 3, 14, 5, 27, 8, 7, 16, 0, 41, 10, 29, 23, 12, 17, 9, 25, 6, 26, 21, 28, 89, 70, 11,
      13, 36, 20, 30, 110, 31, 49, 46, 32, 90, 84, 67, 99, 43, 45, 163, 34, 65, 107, 120, 19, 157,
      18, 95, 75, 72, 77, 37, 83, 42, 182, 39, 53, 166, 61, 48, 22, 81, 160, 127, 124, 105, 50,
      66, 141, 54, 117, 128, 102, 44, 114, 91, 108, 169, 40, 115, 196, 164, 103, 132, 172, 51,
      33, 111, 145, 170, 15, 79, 57, 78, 146, 156, 150, 119, 88, 85, 24, 131, 154, 136, 64, 35,
      162, 122, 168, 191, 198, 161, 38, 76, 59, 176, 60, 56, 74, 113, 123, 126, 143, 62, 47, 153,
      80, 69, 185, 94, 58, 98, 130, 140, 186, 125, 68, 73, 92, 104, 106, 193, 121, 165, 181, 137,
      129, 135, 178, 139, 155, 144, 152, 177, 158, 167, 175, 52, 55, 82, 93, 100, 101, 112, 116,
      118, 138, 148, 159, 180, 188, 195, 71, 86, 87, 97, 197, 109, 133, 142, 149, 151, 173, 179,
      184, 187, 189, 190, 192, 194, 63, 96, 134, 147, 171, 174, 183, 199)),
    (GraphGen.randomTree(60, 5), 308L, Seq(
      13, 0, 2, 17, 29, 20, 26, 36, 8, 6, 1, 5, 22, 33, 40, 3, 23, 31, 28, 46, 4, 14, 11, 25, 7,
      18, 58, 9, 34, 48, 12, 35, 19, 43, 21, 32, 37, 38, 45, 50, 53, 55, 56, 57, 10, 15, 16, 24,
      27, 30, 39, 41, 42, 44, 47, 49, 51, 52, 54, 59)),
  )

  test("significant-path order matches the recorded order on a road grid, a Chung-Lu graph and a tree") {
    for (((g, entries, order), i) <- goldenSignificantPath.zipWithIndex) {
      val (idx, built) = HpSpc.buildWithSignificantPathOrder(g)
      assert(built.toSeq == order, s"graph $i")
      assert(idx.entryCount == entries, s"graph $i")
    }
  }

  /** `s` as a pruned BFS from `queue.head` leaves it for the selection rule:
    * the reached vertices in BFS order, their tree parents and the pruned
    * ones; `ranked` and the root are processed.
    */
  private def bfsTree(s: HpSpc.State, queue: Seq[Int], parent: Map[Int, Int], pruned: Set[Int] = Set.empty,
      ranked: Set[Int] = Set.empty): Int = {
    queue.zipWithIndex.foreach { case (v, k) => s.queue(k) = v }
    parent.foreach { case (v, p) => s.parent(v) = p }
    java.util.Arrays.fill(s.pruned, false)
    pruned.foreach(s.pruned(_) = true)
    (ranked + queue.head).foreach(s.processed(_) = true)
    queue.length
  }

  test("significant-path selection picks from the significant path") {
    // tree 0 -> {1, 2}, 1 -> {3, 4}, 2 -> 5 -> 6; edges to the ranked 7..11
    // set deg(3) = 6
    val g = Graph.fromEdges(12, Seq(0 -> 1, 0 -> 2, 1 -> 3, 1 -> 4, 2 -> 5, 5 -> 6) ++ (7 to 11).map(3 -> _))
    val queue = Seq(0, 1, 2, 3, 4, 5, 6)
    val parent = Map(1 -> 0, 2 -> 0, 3 -> 1, 4 -> 1, 5 -> 2, 6 -> 5)
    val ranked = (7 to 11).toSet
    // des: 0 = 7, 1 = 3, 2 = 3, 3 = 1. Ties to the lower id pick the path
    // 0, 1, 3, whose scores tie too: 3 * (7 - 3) = 6 * (3 - 1)
    val s = new HpSpc.State(g.n)
    val reached = bfsTree(s, queue, parent, ranked = ranked)
    assert(new HpSpc.SignificantPath(g)(s, reached) == 1)
    // a pruned 4 adds nothing to des(1) = 2 < des(2) = 3, so the path is
    // 0, 2, 5, 6, scoring 2 * (6 - 3), 2 * (3 - 2) and 1 * (2 - 1)
    bfsTree(s, queue, parent, pruned = Set(4), ranked = ranked)
    assert(new HpSpc.SignificantPath(g)(s, reached) == 2)
  }

  test("significant-path selection falls back to the highest-degree unranked vertex") {
    // star 3 -> {0, 1, 2} and the triangle 4, 5, 6: degrees 3, then 2, 2, 2
    val g = Graph.fromEdges(7, Seq(3 -> 0, 3 -> 1, 3 -> 2, 4 -> 5, 5 -> 6, 6 -> 4))
    val s = new HpSpc.State(g.n)
    val next = new HpSpc.SignificantPath(g)
    assert(next(s, 0) == 3) // before any BFS: w1
    // the BFSs from 0 and then 1 reach only their root, since 3 is ranked
    assert(next(s, bfsTree(s, Seq(0), Map.empty, ranked = Set(3))) == 4)
    assert(next(s, bfsTree(s, Seq(1), Map.empty, ranked = Set(4))) == 5)
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
