package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen

/** Smoke tests for the experiment harness at tiny scale — the real
  * measurements live in the bench project.
  */
class ExperimentsSuite extends AnyFunSuite {

  private val spec = GraphGen.datasetSpecs.head // FB

  test("datasetResult produces consistent rows and identical index sizes") {
    val r = Experiments.datasetResult(spec, scale = 0.01)
    assert(r.n >= 100 && r.m > 0)
    // paper Exp 2: PSPC and PSPC+ indexes are identical
    assert(r.pspc1.entries == r.pspcP.entries)
    assert(r.hp.indexMs > 0 && r.hpSigMs > 0 && r.pspc1.indexMs > 0 && r.pspcP.indexMs > 0)
    assert(r.hpSigEntries >= r.n) // every vertex labels itself
    assert(r.hp.queryUs > 0 && r.pspcP.queryUs > 0)
  }

  test("datasetResult is cached per (dataset, scale)") {
    val a = Experiments.datasetResult(spec, scale = 0.01)
    val b = Experiments.datasetResult(spec, scale = 0.01)
    assert(a eq b)
  }

  test("speedupSweep covers the requested thread counts") {
    val rows = Experiments.speedupSweep(spec, Seq(1, 2), scale = 0.01)
    assert(rows.map(_.threads) == Seq(1, 2))
    assert(rows.forall(r => r.indexMs > 0 && r.queryUs > 0))
  }

  test("ablation helpers return positive timings") {
    val (ll, nll) = Experiments.ablationLandmarks(spec, scale = 0.01)
    val (dyn, sta) = Experiments.ablationSchedule(spec, scale = 0.01)
    assert(ll > 0 && nll > 0 && dyn > 0 && sta > 0)
  }

  test("order ablation runs all three node orders on the road graph") {
    val rows = Experiments.ablationOrders(GraphGen.roadGrid(12, 12, 0.1, seed = 1))
    assert(rows.map(_.order) == Seq("degree", "tree-decomp", "hybrid(δ=5)"))
    assert(rows.forall(_.indexMs > 0))
  }

  test("delta sweep returns one row per delta") {
    val rows = Experiments.deltaSweep(GraphGen.roadGrid(10, 10, 0.1, seed = 2), Seq(1, 3, 5))
    assert(rows.map(_.delta) == Seq(1, 3, 5))
  }

  test("landmark sweep returns one row per k") {
    val rows = Experiments.landmarkSweep(spec, Seq(0, 10), scale = 0.01)
    assert(rows.map(_.k) == Seq(0, 10))
  }

  test("breakdown sums to a positive total") {
    val b = Experiments.breakdown(spec, scale = 0.01)
    assert(b.orderMs >= 0 && b.llMs > 0 && b.lcMs > 0 && b.materialiseMs > 0)
  }

  test("mdTable renders a well-formed markdown table") {
    val t = Experiments.mdTable(Seq("a", "b"), Seq(Seq("1", "2"), Seq("3", "4")))
    val lines = t.trim.split("\n")
    assert(lines.length == 4)
    assert(lines(0) == "| a | b |")
    assert(lines(1) == "|---|---|")
  }
}
