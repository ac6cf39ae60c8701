package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestUtil}
import repro.core.Pspc
import repro.graph.{Graph, GraphGen, Reference}
import repro.order.VertexOrder

class SparkQueriesSuite extends SparkSpec {
  import spark.implicits._

  private def labelDf(g: Graph) = {
    val order = VertexOrder.degreeOrder(g)
    Pspc.build(g, order)._1.toDF(spark)
  }

  test("evaluate matches LabelIndex.query on the paper example") {
    val g = Graph.paperExample
    val order = Graph.paperExampleOrder
    val idx = Pspc.build(g, order)._1
    val queries = for (s <- 0 until g.n; t <- 0 until g.n) yield (s, t)
    val qdf = spark.createDataset(queries).toDF("s", "t")
    val out = SparkQueries.evaluate(spark, idx.toDF(spark), qdf).collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> ((r.getInt(2), r.getLong(3)))).toMap
    for ((s, t) <- queries) {
      val (d, c) = idx.query(s, t)
      if (d < 0) assert(!out.contains((s, t)))
      else assert(out((s, t)) == ((d, c)), s"($s,$t)")
    }
  }

  test("evaluate answers SPC(v10, v7) = 4 at distance 3 (Example 1)") {
    val g = Graph.paperExample
    val idx = Pspc.build(g, Graph.paperExampleOrder)._1
    val qdf = spark.createDataset(Seq((9, 6))).toDF("s", "t")
    val row = SparkQueries.evaluate(spark, idx.toDF(spark), qdf).collect().head
    assert(row.getInt(2) == 3 && row.getLong(3) == 4L)
  }

  test("oracle: Spark 2-hop aggregation equals DuckDB SQL over the labels (paper example)") {
    val g = Graph.paperExample
    val idx = Pspc.build(g, Graph.paperExampleOrder)._1
    val labels = idx.toDF(spark)
    val queries = spark
      .createDataset(for (s <- 0 until g.n; t <- 0 until g.n) yield (s, t))
      .toDF("s", "t")
    val out = SparkQueries.evaluate(spark, labels, queries)
      .select($"s".cast("long"), $"t".cast("long"), $"dist".cast("long"), $"cnt".cast("long"))
      .toDF("s", "t", "dist", "cnt")
    Oracle.assertEquivalent(out, SparkQueries.duckDbSql, "labels" -> labels, "queries" -> queries)
  }

  test("oracle: Spark 2-hop aggregation equals DuckDB SQL on a random power-law graph") {
    val g = GraphGen.chungLu(50, 5.0, 2.5, seed = 12)
    val labels = labelDf(g)
    val rnd = new scala.util.Random(3)
    val queries = spark
      .createDataset(Seq.fill(300)((rnd.nextInt(g.n), rnd.nextInt(g.n))).distinct)
      .toDF("s", "t")
    val out = SparkQueries.evaluate(spark, labels, queries)
      .select($"s".cast("long"), $"t".cast("long"), $"dist".cast("long"), $"cnt".cast("long"))
      .toDF("s", "t", "dist", "cnt")
    Oracle.assertEquivalent(out, SparkQueries.duckDbSql, "labels" -> labels, "queries" -> queries)
  }

  test("oracle: index query results equal the DuckDB walk-counting ground truth (paper example)") {
    val g = Graph.paperExample
    val idx = Pspc.build(g, Graph.paperExampleOrder)._1
    // all connected ordered pairs s != t answered from the index
    val rows = for {
      s <- 0 until g.n; t <- 0 until g.n if s != t
      (d, c) = idx.query(s, t) if d >= 0
    } yield (s.toLong, t.toLong, d.toLong, c)
    val out = spark.createDataset(rows).toDF("s", "t", "dist", "cnt")
    val edges = g.edgesDF(spark)
    Oracle.assertEquivalent(out, SparkQueries.groundTruthSql(g.diameter), "edges" -> edges)
  }

  test("oracle: index query results equal the walk-counting ground truth (tiny random graph)") {
    val g = GraphGen.largestComponent(GraphGen.erdosRenyi(14, 22, seed = 9))
    val idx = Pspc.build(g, VertexOrder.degreeOrder(g))._1
    val rows = for {
      s <- 0 until g.n; t <- 0 until g.n if s != t
      (d, c) = idx.query(s, t) if d >= 0
    } yield (s.toLong, t.toLong, d.toLong, c)
    val out = spark.createDataset(rows).toDF("s", "t", "dist", "cnt")
    Oracle.assertEquivalent(out, SparkQueries.groundTruthSql(g.diameter), "edges" -> g.edgesDF(spark))
  }

  test("evaluate on the distributed-built label table matches the reference") {
    val g = GraphGen.wattsStrogatz(24, 2, 0.3, seed = 10)
    val order = VertexOrder.degreeOrder(g)
    val labels = SparkPspc.build(spark, g, order).toDF(spark)
    val queries = spark
      .createDataset(for (s <- 0 until g.n; t <- 0 until g.n) yield (s, t))
      .toDF("s", "t")
    val out = SparkQueries.evaluate(spark, labels, queries).collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> ((r.getInt(2), r.getLong(3)))).toMap
    val (dist, cnt) = Reference.allPairs(g)
    for (s <- 0 until g.n; t <- 0 until g.n) {
      if (dist(s)(t) < 0) assert(!out.contains((s, t)))
      else assert(out((s, t)) == ((dist(s)(t), cnt(s)(t))), s"($s,$t)")
    }
  }
}
