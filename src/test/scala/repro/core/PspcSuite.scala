package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.{Graph, GraphGen}
import repro.order.VertexOrder
import scala.collection.mutable

class PspcSuite extends AnyFunSuite {
  import Pspc._

  private def bytesOf(k: Kernel): Array[Byte] = {
    val bytes = new ByteArrayOutputStream
    val out = new ObjectOutputStream(bytes)
    out.writeObject(k); out.close()
    bytes.toByteArray
  }

  private def kernelOf(bytes: Array[Byte]): Kernel =
    new ObjectInputStream(new ByteArrayInputStream(bytes)).readObject().asInstanceOf[Kernel]

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
    // The union's components finish in different rounds, so its last rounds
    // pull one component while the blocks of the others must stay closed.
    val road = GraphGen.roadGrid(20, 20, 0.12, 3)
    val pl = TestUtil.randomPowerLaw(3)
    val er = TestUtil.randomGraph(5)
    val union = TestUtil.componentUnion
    val inputs = Seq(
      ("road grid 20x20, hybrid order", road, VertexOrder.hybridOrder(road, 4)),
      ("power-law seed=3, tree-decomposition order", pl, VertexOrder.treeDecompOrder(pl)),
      ("random graph seed=5, shuffled order", er, new scala.util.Random(5).shuffle((0 until er.n).toVector).toArray),
      ("path + grid + isolated vertex, degree order", union, VertexOrder.degreeOrder(union)),
    )
    for ((name, g, order) <- inputs) {
      val hp = HpSpc.build(g, order)
      for (t <- Seq(1, 4); s <- Seq(StaticSchedule, DynamicSchedule); k <- Seq(0, 5))
        withClue(s"$name, $t threads, $s, $k landmarks: ") {
          TestUtil.assertSameLabels(hp, Pspc.build(g, order, threads = t, schedule = s, numLandmarks = k)._1)
        }
    }
  }

  /** The staged blocks of `s` as `(vertex, hub ranks, counts)`. */
  private def blocksOf(s: Scratch): Seq[(Int, Seq[Int], Seq[Long])] = {
    var from = 0
    s.staged.toArray.grouped(2).map { case Array(u, until) =>
      val block = (u, s.hubs.toArray.slice(from, until).toSeq, s.cnts.toArray.slice(from, until).toSeq)
      from = until
      block
    }.toSeq
  }

  test("round d pulls exactly the vertices with a neighbour labelled at distance d-1") {
    val road = GraphGen.roadGrid(20, 20, 0.12, 3)
    val union = TestUtil.componentUnion
    val weighted = TestUtil.weightedPath
    val inputs = Seq(
      ("road grid 20x20, hybrid order", road, VertexOrder.hybridOrder(road, 4)),
      ("path + grid + isolated vertex", union, VertexOrder.degreeOrder(union)),
      ("weighted path", weighted, VertexOrder.degreeOrder(weighted)),
    )
    for ((name, g, order) <- inputs; s <- Seq(StaticSchedule, DynamicSchedule); t <- Seq(1, 4))
      withClue(s"$name, $s, $t threads: ") {
        val frontiers = mutable.ArrayBuffer.empty[(Int, Seq[Int])]
        val (idx, stats) = Pspc.pipeline(g, order, t, numLandmarks = 0) { (workers, kernel) =>
          val pulls = Pspc.threadedPulls(g, order, s)(workers, kernel)
          (d, scratches) => {
            frontiers += d -> (0 until g.n).filter(kernel.flagged)
            pulls(d, scratches)
            // a pull clears its vertex's flag; only the appends set flags
            assert(!kernel.flagged.contains(true), s"round $d left a flag set")
          }
        }
        // the round after the last one pulls the last round's neighbours and adds nothing
        assert(frontiers.map(_._1) == (1 to stats.rounds + 1))
        for ((d, f) <- frontiers) {
          val expected = (0 until g.n).filter(u => g.nbr(u).exists(v => idx.dists(v).contains(d - 1)))
          assert(f == expected, s"round $d")
        }
      }
  }

  test("a serialised kernel pulls the same survivors as the original, from its live entries only") {
    val g = GraphGen.roadGrid(20, 20, 0.12, 3)
    val order = VertexOrder.hybridOrder(g, 4)
    val checked = mutable.ArrayBuffer.empty[Int]
    Pspc.pipeline(g, order, 1, numLandmarks = 5) { (workers, kernel) =>
      val pulls = Pspc.threadedPulls(g, order, DynamicSchedule)(workers, kernel)
      (d, scratches) => {
        if (d % 4 == 0) {
          val bytes = bytesOf(kernel)
          val copy = kernelOf(bytes)
          // the copy's lists have no spare capacity: equal sizes mean only
          // the live entries were written
          assert(bytesOf(copy).length == bytes.length, s"round $d")
          val a = new Scratch(g.n); val b = new Scratch(g.n)
          for (u <- 0 until g.n) {
            assert(copy.lastRound(u) == kernel.lastRound(u), s"round $d, vertex $u")
            kernel.pull(u, d, a); copy.pull(u, d, b)
          }
          // the copy reads a block only where it carries the stamp d-1
          assert(blocksOf(a) == blocksOf(b), s"round $d")
          if (blocksOf(a).nonEmpty) checked += d
        }
        pulls(d, scratches)
      }
    }
    assert(checked.length >= 3, s"checked rounds $checked")
  }

  test("a pull reads only the blocks stamped d-1") {
    // Re-pulling round 1 after later rounds appended: the blocks stamped 0
    // are L_0 entries, every one of them a distance-1 hub already labelled,
    // so nothing survives. Reading the newer blocks as distance-0 entries
    // would stage the hubs that round d is about to pull.
    val g = GraphGen.roadGrid(20, 20, 0.12, 3)
    val order = VertexOrder.hybridOrder(g, 4)
    var checked = 0
    Pspc.pipeline(g, order, 1, numLandmarks = 0) { (workers, kernel) =>
      val pulls = Pspc.threadedPulls(g, order, DynamicSchedule)(workers, kernel)
      (d, scratches) => {
        if (d >= 3 && d <= 5) {
          val s = new Scratch(g.n)
          for (u <- 0 until g.n) kernel.pull(u, 1, s)
          assert(blocksOf(s).isEmpty, s"round $d")
          checked += 1
        }
        pulls(d, scratches)
      }
    }
    assert(checked == 3)
  }

  test("every staged block is strictly ascending in hub rank") {
    // pull's rank-rule bound depends on this order; a block out of order
    // loses candidates, so the labels differ as well
    def assertAscending(d: Int, scratches: Array[Scratch]): Int = {
      val blocks = scratches.toSeq.flatMap(blocksOf)
      for ((u, h, _) <- blocks)
        assert((1 until h.length).forall(i => h(i - 1) < h(i)), s"round $d, vertex $u: $h")
      blocks.length
    }
    val road = GraphGen.roadGrid(20, 20, 0.12, 3)
    val union = TestUtil.componentUnion
    val weighted = TestUtil.weightedPath
    val inputs = Seq(
      ("road grid 20x20, hybrid order", road, VertexOrder.hybridOrder(road, 4)),
      ("path + grid + isolated vertex", union, VertexOrder.degreeOrder(union)),
      ("weighted path", weighted, VertexOrder.degreeOrder(weighted)),
    )
    for ((name, g, order) <- inputs) {
      val hp = HpSpc.build(g, order)
      for (t <- Seq(1, 4); s <- Seq(StaticSchedule, DynamicSchedule); k <- Seq(0, 5))
        withClue(s"$name, $t threads, $s, $k landmarks: ") {
          var staged = 0
          val (idx, _) = Pspc.pipeline(g, order, t, k) { (workers, kernel) =>
            val pulls = Pspc.threadedPulls(g, order, s)(workers, kernel)
            (d, scratches) => { pulls(d, scratches); staged += assertAscending(d, scratches) }
          }
          assert(staged > 0)
          TestUtil.assertSameLabels(hp, idx)
        }
      // the Spark build pulls through a deserialised copy of the kernel
      withClue(s"$name, a deserialised kernel: ") {
        val (idx, _) = Pspc.pipeline(g, order, 1, 5) { (_, kernel) => (d, scratches) =>
          val copy = kernelOf(bytesOf(kernel))
          for (u <- 0 until g.n if kernel.flagged(u)) {
            kernel.flagged(u) = false
            copy.pull(u, d, scratches(0))
          }
          assertAscending(d, scratches)
        }
        TestUtil.assertSameLabels(hp, idx)
      }
    }
  }

  test("materialisation fails on a hub staged twice for one vertex") {
    // round 2 re-stages a hub that round 1 gave vertex u: the sort in
    // Kernel.index must see the duplicate and name it instead of building
    // an index
    val g = GraphGen.path(6)
    val order = VertexOrder.degreeOrder(g)
    var round1 = Map.empty[Int, Seq[Int]]
    var restaged = -1
    val e = intercept[IllegalArgumentException] {
      Pspc.pipeline(g, order, 1, 0) { (workers, kernel) =>
        val pulls = Pspc.threadedPulls(g, order, DynamicSchedule)(workers, kernel)
        (d, scratches) => {
          pulls(d, scratches)
          val blocks = scratches.toSeq.flatMap(blocksOf)
          if (d == 1) round1 = blocks.map { case (u, h, _) => u -> h }.toMap
          if (d == 2) {
            // a vertex round 2 stages nothing for, so its round-2 block is the restaged hub alone
            val u = (round1.keySet -- blocks.map(_._1)).min
            scratches(0).stage(Array(u, 1), Array(round1(u).head), Array(1L))
            restaged = u
          }
        }
      }
    }
    assert(restaged >= 0)
    assert(e.getMessage == s"label list of vertex $restaged holds hub ${order(round1(restaged).head)} twice")
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
    assert(stats.rounds <= TestUtil.diameter(g))
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
