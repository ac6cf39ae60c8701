package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.{Graph, GraphGen}
import repro.order.VertexOrder

class PspcSuite extends AnyFunSuite {
  import Pspc._

  test("reproduces the paper's Table II exactly on the Fig. 2 graph") {
    val g = Graph.paperExample
    val (idx, _) = Pspc.build(g, Graph.paperExampleOrder)
    for (v <- 0 until 10)
      assert(idx.labelOf(v).toSet == TestUtil.tableII(v), s"L(v${v + 1})")
  }

  test("PSPC index equals the HP-SPC index label-for-label") {
    for (seed <- 0 until 8) {
      val g = TestUtil.randomGraph(seed)
      val order = VertexOrder.degreeOrder(g)
      TestUtil.assertSameLabels(HpSpc.build(g, order), Pspc.build(g, order)._1)
    }
    // Without landmarks every prune goes through the query rule, whose scan
    // stops at prevStart(w). Only a label-for-label check can see a missed
    // prune: the extra entry's distance is too large to win a query.
    val road = GraphGen.roadGrid(20, 20, 0.12, 3)
    val pl = TestUtil.randomPowerLaw(3)
    val er = TestUtil.randomGraph(5)
    val inputs = Seq(
      ("road grid 20x20, hybrid order", road, VertexOrder.hybridOrder(road, 4)),
      ("power-law seed=3, tree-decomposition order", pl, VertexOrder.treeDecompOrder(pl)),
      ("random graph seed=5, shuffled order", er, new scala.util.Random(5).shuffle((0 until er.n).toVector).toArray),
    )
    for ((name, g, order) <- inputs; t <- Seq(1, 4)) withClue(s"$name, $t threads: ") {
      TestUtil.assertSameLabels(HpSpc.build(g, order), Pspc.build(g, order, threads = t, numLandmarks = 0)._1)
    }
  }

  for ((name, g) <- TestUtil.smallGraphs) {
    test(s"all-pairs exactness on $name (single thread)") {
      TestUtil.assertIndexExact(g, Pspc.build(g, VertexOrder.degreeOrder(g))._1)
    }
  }

  for (seed <- 0 until 10) {
    test(s"all-pairs exactness on random graph seed=$seed") {
      val g = TestUtil.randomGraph(seed)
      TestUtil.assertIndexExact(g, Pspc.build(g, VertexOrder.degreeOrder(g))._1)
    }
  }

  for (seed <- 0 until 6) {
    test(s"all-pairs exactness on power-law graph seed=$seed") {
      val g = TestUtil.randomPowerLaw(seed)
      TestUtil.assertIndexExact(g, Pspc.build(g, VertexOrder.degreeOrder(g))._1)
    }
  }

  for (threads <- Seq(2, 4, 8)) {
    test(s"index is identical with $threads threads (paper Exp 2 claim)") {
      val g = TestUtil.randomPowerLaw(3)
      val order = VertexOrder.degreeOrder(g)
      val base = Pspc.build(g, order, threads = 1)._1
      TestUtil.assertSameLabels(base, Pspc.build(g, order, threads = threads)._1)
    }
  }

  test("index is identical under the static schedule") {
    val g = TestUtil.randomPowerLaw(4)
    val order = VertexOrder.degreeOrder(g)
    val dyn = Pspc.build(g, order, threads = 4, schedule = DynamicSchedule)._1
    val sta = Pspc.build(g, order, threads = 4, schedule = StaticSchedule)._1
    TestUtil.assertSameLabels(dyn, sta)
  }

  for (k <- Seq(1, 5, 50)) {
    test(s"landmark filtering with k=$k leaves the index unchanged") {
      val g = TestUtil.randomPowerLaw(5)
      val order = VertexOrder.degreeOrder(g)
      val base = Pspc.build(g, order, threads = 2, numLandmarks = 0)._1
      val lm = Pspc.build(g, order, threads = 2, numLandmarks = k)._1
      TestUtil.assertSameLabels(base, lm)
    }
  }

  test("landmarks combined with the static schedule stay exact") {
    val g = TestUtil.randomGraph(60)
    val order = VertexOrder.degreeOrder(g)
    val idx = Pspc.build(g, order, threads = 4, schedule = StaticSchedule, numLandmarks = 10)._1
    TestUtil.assertIndexExact(g, idx)
  }

  test("exact under tree-decomposition and hybrid orders") {
    val g = GraphGen.roadGrid(7, 7, drop = 0.1, seed = 3)
    TestUtil.assertIndexExact(g, Pspc.build(g, VertexOrder.treeDecompOrder(g))._1)
    TestUtil.assertIndexExact(g, Pspc.build(g, VertexOrder.hybridOrder(g, 3))._1)
  }

  test("rounds never exceed the diameter") {
    val g = GraphGen.path(12)
    val (_, stats) = Pspc.build(g, VertexOrder.degreeOrder(g))
    assert(stats.rounds <= g.diameter)
  }

  test("the round count equals the largest label distance (stop rule)") {
    val inputs = TestUtil.smallGraphs :+ ("road grid 20x20" -> GraphGen.roadGrid(20, 20, 0.12, 3))
    for ((name, g) <- inputs; s <- Seq(StaticSchedule, DynamicSchedule); t <- Seq(1, 4)) {
      val (idx, stats) = Pspc.build(g, VertexOrder.degreeOrder(g), threads = t, schedule = s)
      val maxDist = idx.dists.iterator.flatMap(_.iterator).max
      assert(stats.rounds == maxDist, s"$name / $s / $t threads")
    }
  }

  test("weighted graph: labels honour interior multiplicities") {
    val cycle = Graph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
                                Array(1L, 3L, 1L, 2L, 1L))
    for (g <- Seq(cycle, TestUtil.weightedPath))
      TestUtil.assertIndexExact(g, Pspc.build(g, VertexOrder.degreeOrder(g))._1)
  }

  test("weighted equivalence: PSPC equals HP-SPC on a weighted graph") {
    val g = Graph.fromEdges(6, Seq((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)),
                            Array(1L, 2L, 1L, 4L, 1L, 3L))
    val order = VertexOrder.degreeOrder(g)
    TestUtil.assertSameLabels(HpSpc.build(g, order), Pspc.build(g, order)._1)
  }

  test("landmarks with an adversarial order (ascending degree) stay exact") {
    val g = TestUtil.randomGraph(70)
    val order = VertexOrder.degreeOrder(g).reverse
    TestUtil.assertIndexExact(g, Pspc.build(g, order, threads = 4, numLandmarks = 20)._1)
  }

  test("disconnected graphs: labels never bridge components") {
    val g = Graph.fromEdges(7, Seq((0, 1), (1, 2), (3, 4), (5, 6)))
    val (idx, _) = Pspc.build(g, VertexOrder.degreeOrder(g))
    TestUtil.assertIndexExact(g, idx)
    assert(idx.query(0, 3) == ((-1, 0L)))
  }

  test("single-vertex graph builds a one-entry index") {
    val g = Graph.fromEdges(1, Nil)
    val (idx, stats) = Pspc.build(g, Array(0))
    assert(idx.entryCount == 1L && stats.rounds == 0)
  }

  test("a build that throws in its landmark step leaves no worker thread alive") {
    // The build thread starts interrupted, so the pool's first barrier, the
    // landmark BFSs, throws InterruptedException. The pool's threads start
    // in the build thread's group, which is how the test finds them.
    val g = GraphGen.roadGrid(60, 60, drop = 0.1, seed = 1)
    val order = VertexOrder.hybridOrder(g, 4)
    val group = new ThreadGroup("pspc-build")
    var thrown: Throwable = null
    val builder = new Thread(group, () => {
      Thread.currentThread().interrupt()
      try Pspc.build(g, order, threads = 4, numLandmarks = 200)
      catch { case e: Throwable => thrown = e }
    })
    builder.start()
    builder.join(60000)
    assert(thrown.isInstanceOf[InterruptedException], s"build ended with $thrown")
    val seen = new Array[Thread](group.activeCount + 8)
    val alive = seen.take(group.enumerate(seen))
    alive.foreach(_.join(10000))
    alive.foreach(t => assert(!t.isAlive, s"worker $t is still alive"))
  }

  test("an order one slot too short or too long is rejected") {
    val g = GraphGen.path(6)
    for (order <- Seq(Array(0, 1, 2, 3, 4), Array(0, 1, 2, 3, 4, 5, 6))) {
      val e = intercept[IllegalArgumentException](Pspc.build(g, order))
      assert(e.getMessage.contains(s"${order.length} slots for a graph of 6 vertices"))
    }
  }
}
