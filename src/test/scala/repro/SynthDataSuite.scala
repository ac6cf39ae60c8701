package repro

import repro.graph.{Graph, GraphGen}

/** Tests for SynthData (DESIGN.md §5): the paper evaluates on graphs, so
  * the synthetic generators expose edge DataFrames in the shape the Spark
  * builders and the DuckDB oracle eat.
  */
class SynthDataSuite extends SparkSpec {

  test("graphEdges produces a both-direction edge table of the analogue") {
    val df = SynthData.graphEdges(spark, "GW", scale = 0.01)
    assert(df.columns.toSeq == Seq("src", "dst"))
    val g = GraphGen.analogue(GraphGen.datasetSpecs.find(_.key == "GW").get, scale = 0.01)
    assert(df.count() == 2L * g.m)
  }

  test("graphEdges round-trips through Graph.fromDataFrame") {
    val df = SynthData.graphEdges(spark, "FB", scale = 0.005)
    val g = Graph.fromDataFrame(df)
    val direct = GraphGen.analogue(GraphGen.datasetSpecs.head, scale = 0.005)
    assert(g.n == direct.n && g.m == direct.m)
    assert(g.edges.toSeq == direct.edges.toSeq)
  }

  test("graphEdges rejects unknown dataset keys") {
    intercept[IllegalArgumentException](SynthData.graphEdges(spark, "nope"))
  }

  test("graphEdges is deterministic") {
    val a = SynthData.graphEdges(spark, "YT", scale = 0.005).collect().toSeq
    val b = SynthData.graphEdges(spark, "YT", scale = 0.005).collect().toSeq
    assert(a == b)
  }

  test("powerLawEdges matches the GraphGen generator") {
    val df = SynthData.powerLawEdges(spark, 80, 6.0, 2.4, seed = 3)
    val g = Graph.fromDataFrame(df)
    val direct = GraphGen.chungLu(80, 6.0, 2.4, seed = 3)
    assert(g.edges.toSeq == direct.edges.toSeq)
  }

  test("roadEdges matches the GraphGen generator") {
    val df = SynthData.roadEdges(spark, 8, 8, drop = 0.1, seed = 5)
    val g = Graph.fromDataFrame(df)
    val direct = GraphGen.roadGrid(8, 8, drop = 0.1, seed = 5)
    assert(g.n == direct.n && g.edges.toSeq == direct.edges.toSeq)
  }
}
