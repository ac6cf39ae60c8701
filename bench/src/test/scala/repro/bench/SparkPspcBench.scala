package repro.bench

import repro.{SparkSpec, TestUtil}
import repro.core.Pspc
import repro.exp.Experiments
import repro.exp.Experiments.f1
import repro.graph.GraphGen
import repro.order.VertexOrder
import repro.spark.{SparkPspc, SparkQueries}

/** Distributed construction (the repro band's target shape): PSPC's
  * distance rounds as a Spark job that runs the threaded builder's kernel
  * per partition against a broadcast snapshot, validated against the
  * threaded builder and timed. Absolute times are dominated by per-round
  * job overhead at this scale — the point is that the rounds parallelize
  * with no cross-partition dependency.
  */
class SparkPspcBench extends SparkSpec {

  test("distributed dataflow: the Spark build matches the threaded index") {
    val g = GraphGen.largestComponent(GraphGen.chungLu(400, 8.0, 2.5, seed = 21))
    val order = VertexOrder.degreeOrder(g)

    val parallelism = spark.sparkContext.defaultParallelism // start the session outside the timings
    val ((localIdx, stats), localMs) = Experiments.timeMs(Pspc.build(g, order, threads = Experiments.MaxThreads))
    val (coldIdx, coldMs) = Experiments.timeMs(SparkPspc.build(spark, g, order))
    val (sparkIdx, sparkMs) = Experiments.timeMs(SparkPspc.build(spark, g, order))

    TestUtil.assertSameLabels(localIdx, coldIdx)
    TestUtil.assertSameLabels(localIdx, sparkIdx)

    // batch queries: every partition runs LabelIndex.query over the broadcast index
    import spark.implicits._
    val rnd = new scala.util.Random(5)
    val pairs = Seq.fill(2000)((rnd.nextInt(g.n), rnd.nextInt(g.n))).distinct
    def batch() = SparkQueries.evaluate(spark, sparkIdx, pairs.toDF("s", "t")).collect()
    val (_, coldQueryMs) = Experiments.timeMs(batch()) // carries Spark SQL's first-query start-up
    val (rows, queryMs) = Experiments.timeMs(batch())

    BenchReport.section("Distributed dataflow (repro band target)") {
      BenchReport.table(
        Seq("engine", "build ms", "entries"),
        Seq(
          Seq(s"threaded PSPC+ (${Experiments.MaxThreads}T)", f1(localMs), localIdx.entryCount.toString),
          Seq("Spark, first build", f1(coldMs), coldIdx.entryCount.toString),
          Seq("Spark, second build", f1(sparkMs), sparkIdx.entryCount.toString),
        ),
      ) +
        s"\ngraph: |V|=${g.n} |E|=${g.m}; ${stats.rounds} rounds; " +
        s"Spark defaultParallelism=$parallelism, ${Runtime.getRuntime.availableProcessors} cores; " +
        "identical label multisets.\n" +
        s"Batch of ${rows.length} SPC queries answered from the broadcast index: " +
        s"first batch ${f1(coldQueryMs)} ms, second batch ${f1(queryMs)} ms."
    }
    for (r <- rows) {
      val (s, t) = (r.getInt(0), r.getInt(1))
      assert((r.getInt(2), r.getLong(3)) == sparkIdx.query(s, t), s"($s,$t)")
    }
    assert(rows.length == pairs.count { case (s, t) => sparkIdx.query(s, t)._1 >= 0 })
  }
}
