package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments
import repro.exp.Experiments.f1
import repro.graph.GraphGen

/** Exp 8 (Fig. 13) — indexing-time breakdown into node ordering (Order),
  * landmark labeling (LL), label construction (LC) and materialisation
  * (the rest of the build's wall clock, mostly the final `LabelIndex`
  * assembly).
  */
class Exp8BreakdownBench extends AnyFunSuite {

  test("Exp 8: indexing time breakdown (ms)") {
    assert(BenchReport.warmedUp)
    val rows = GraphGen.datasetSpecs.map(Experiments.breakdown(_))
    BenchReport.section("Exp 8: Order / LL / LC / Materialise breakdown (ms)") {
      BenchReport.table(
        Seq("dataset", "Order", "LL", "LC", "Materialise", "LC share"),
        rows.map { r =>
          val total = r.orderMs + r.llMs + r.lcMs + r.materialiseMs
          Seq(r.key, f1(r.orderMs), f1(r.llMs), f1(r.lcMs), f1(r.materialiseMs),
              f"${100 * r.lcMs / total}%.0f%%")
        },
      ) + "\nPaper: LC dominates both other phases on every dataset."
    }
    rows.foreach { r =>
      assert(r.lcMs > r.orderMs && r.lcMs > r.llMs,
        s"${r.key}: LC (${r.lcMs}) must dominate Order (${r.orderMs}) and LL (${r.llMs})")
    }
  }
}
