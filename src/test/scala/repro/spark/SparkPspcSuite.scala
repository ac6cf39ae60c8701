package repro.spark

import repro.{SparkSpec, TestUtil}
import repro.core.{LabelIndex, Pspc}
import repro.core.Reductions.EquivReduction
import repro.graph.{Graph, GraphGen}
import repro.order.VertexOrder

class SparkPspcSuite extends SparkSpec {
  import Pspc._

  /** The Spark build of `g` equals threaded PSPC under every schedule
    * and thread count.
    */
  private def assertMatchesThreaded(g: Graph, order: Array[Int], dist: LabelIndex): Unit =
    for (s <- Seq(StaticSchedule, DynamicSchedule); t <- Seq(1, 4))
      withClue(s"$s / $t threads: ") {
        TestUtil.assertSameLabels(Pspc.build(g, order, threads = t, schedule = s)._1, dist)
      }

  test("Spark PSPC reproduces the paper's Table II on the Fig. 2 graph") {
    val g = Graph.paperExample
    val idx = SparkPspc.build(spark, g, Graph.paperExampleOrder)
    for (v <- 0 until 10)
      assert(idx.labelOf(v).toSet == TestUtil.tableII(v), s"L(v${v + 1})")
    assertMatchesThreaded(g, Graph.paperExampleOrder, idx)
  }

  test("Spark PSPC equals the threaded PSPC index on random graphs") {
    for (seed <- Seq(0, 1)) {
      val g = TestUtil.randomGraph(seed)
      val order = VertexOrder.degreeOrder(g)
      assertMatchesThreaded(g, order, SparkPspc.build(spark, g, order))
    }
  }

  test("Spark PSPC is exact on a power-law graph") {
    val g = GraphGen.chungLu(60, 6.0, 2.4, seed = 4)
    val order = VertexOrder.degreeOrder(g)
    val idx = SparkPspc.build(spark, g, order)
    TestUtil.assertIndexExact(g, idx)
    assertMatchesThreaded(g, order, idx)
  }

  test("Spark PSPC honours vertex weights") {
    val weighted = Graph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
                                   Array(1L, 3L, 1L, 2L, 1L))
    val starReduced = new EquivReduction(GraphGen.star(12)).reducedGraph
    for (g <- Seq(weighted, TestUtil.weightedPath, starReduced)) {
      val order = VertexOrder.degreeOrder(g)
      val idx = SparkPspc.build(spark, g, order)
      TestUtil.assertIndexExact(g, idx)
      assertMatchesThreaded(g, order, idx)
    }
  }

  test("Spark PSPC handles a disconnected graph") {
    val g = Graph.fromEdges(6, Seq((0, 1), (1, 2), (3, 4)))
    val order = VertexOrder.degreeOrder(g)
    val idx = SparkPspc.build(spark, g, order)
    TestUtil.assertIndexExact(g, idx)
    assertMatchesThreaded(g, order, idx)
  }

  test("Spark PSPC runs past 64 rounds on a graph of diameter 70") {
    val g = GraphGen.cycle(140)
    val order = VertexOrder.degreeOrder(g)
    val idx = SparkPspc.build(spark, g, order)
    TestUtil.assertIndexExact(g, idx)
    assertMatchesThreaded(g, order, idx)
  }

  test("Spark PSPC fails loudly on a path count beyond a Long") {
    val g = TestUtil.diamondChain(64)
    val e = intercept[Exception](SparkPspc.build(spark, g, VertexOrder.degreeOrder(g)))
    assert(e.getMessage.contains("exceeds a Long"), e.getMessage)
  }

  test("Spark PSPC rejects an order one slot too short or too long") {
    val g = GraphGen.path(6)
    for (order <- Seq(Array(0, 1, 2, 3, 4), Array(0, 1, 2, 3, 4, 5, 6))) {
      val e = intercept[IllegalArgumentException](SparkPspc.build(spark, g, order))
      assert(e.getMessage.contains(s"${order.length} slots for a graph of 6 vertices"))
    }
  }
}
