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

    // batch queries through the Catalyst dataflow
    import spark.implicits._
    val rnd = new scala.util.Random(5)
    val queries = spark
      .createDataset(Seq.fill(2000)((rnd.nextInt(g.n), rnd.nextInt(g.n))).distinct)
      .toDF("s", "t")
    val (answered, queryMs) =
      Experiments.timeMs(SparkQueries.evaluate(spark, sparkIdx.toDF(spark), queries).count())

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
        s"Batch of ${answered} SPC queries answered via DataFrame joins in ${f1(queryMs)} ms."
    }
    assert(answered > 0)
  }
}
