package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments
import repro.exp.Experiments.f1
import repro.graph.GraphGen

/** Exp 5 (Fig. 10) — ablation of the three optimizations at full thread
  * count: (a) landmark labeling on/off, (b) dynamic id-order chunks vs
  * static rank-order ranges (the paper's cost-function schedule is not
  * built, DESIGN.md §1), (c) node orders on the road-like graph.
  */
class Exp5AblationBench extends AnyFunSuite {

  private val keys = Seq("FB", "GW", "WI", "GO")
  private def specs = keys.map(k => GraphGen.datasetSpecs.find(_.key == k).get)

  test("Exp 5a: landmark labeling (LL) vs none (NLL)") {
    assert(BenchReport.warmedUp)
    val rows = specs.map { s =>
      val (ll, nll) = Experiments.ablationLandmarks(s)
      (s.key, ll, nll)
    }
    BenchReport.section("Exp 5a: landmark labeling ablation (ms)") {
      BenchReport.table(
        Seq("dataset", "LL", "NLL", "LL/NLL"),
        rows.map { case (k, ll, nll) => Seq(k, f1(ll), f1(nll), f1(ll / nll)) },
      ) +
        "\nPaper: LL is slightly faster than NLL. At our reduced scale the k=100\n" +
        "landmark BFS preprocessing is not amortized (our hub-side label scan is\n" +
        "already O(|L(hub)|), tiny for landmark hubs), so LL lands at parity or a\n" +
        "little slower — the filter's win only materializes at paper scale."
    }
    // loose: landmarks must stay within 2x, never a catastrophic regression
    rows.foreach { case (k, ll, nll) => assert(ll < nll * 2.0, s"$k: LL=$ll NLL=$nll") }
  }

  test("Exp 5b: dynamic vs static schedule") {
    assert(BenchReport.warmedUp)
    val rows = specs.map { s =>
      val (dyn, sta) = Experiments.ablationSchedule(s)
      (s.key, dyn, sta)
    }
    BenchReport.section("Exp 5b: schedule ablation (ms)") {
      BenchReport.table(
        Seq("dataset", "dynamic", "static", "dyn/static"),
        rows.map { case (k, d, st) => Seq(k, f1(d), f1(st), f1(d / st)) },
      ) + "\nPaper: the cost-function dynamic schedule is somewhat faster than static.\n" +
        "Ours: dynamic hands out small chunks of vertex ids in id order, with no\n" +
        "cost sort (it did not pay on shuffled-id inputs); static gives each\n" +
        "worker one equal range of the rank order."
    }
    rows.foreach { case (k, d, st) => assert(d < st * 1.8, s"$k: dynamic=$d static=$st") }
  }

  test("Exp 5c: node orders (degree / tree-decomposition / hybrid)") {
    assert(BenchReport.warmedUp)
    val road = Experiments.roadGraph()
    val rows = Experiments.ablationOrders(road, delta = 5)
    BenchReport.section("Exp 5c: node-order ablation on the road graph (ms / MB)") {
      BenchReport.table(
        Seq("order", "order ms", "total ms", "label-construction ms", "index MB"),
        rows.map(r => Seq(r.order, f1(r.orderMs), f1(r.indexMs), f1(r.lcMs), f1(r.sizeMB))),
      ) +
        s"\nroad graph: |V|=${road.n}, |E|=${road.m}, d_avg=${Experiments.f2(road.avgDeg)}.\n" +
        "Paper: the hybrid order is the fastest of the three on road-like graphs.\n" +
        "At our reduced scale the minimum-degree-elimination ordering cost is not\n" +
        "amortized by the (much shorter) label construction; the paper-scale signal\n" +
        "is the LC column and the index size, where hybrid/tree-decomp win."
    }
    val byName = rows.map(r => r.order -> r).toMap
    val hybrid = byName.keys.find(_.startsWith("hybrid")).map(byName).get
    // the paper-scale shape: hybrid must win on index size and not lose on LC
    assert(hybrid.sizeMB < byName("degree").sizeMB,
      s"hybrid index ${hybrid.sizeMB}MB should undercut degree ${byName("degree").sizeMB}MB")
    assert(hybrid.lcMs < byName("degree").lcMs * 1.3,
      s"hybrid LC=${hybrid.lcMs} degree LC=${byName("degree").lcMs}")
  }
}
