package repro.spark

import repro.{Oracle, SparkSpec, TestUtil}
import repro.core.{LabelIndex, Pspc}
import repro.core.Reductions.EquivReduction
import repro.graph.{Graph, GraphGen, Reference}
import repro.order.VertexOrder

class SparkQueriesSuite extends SparkSpec {
  import spark.implicits._

  private def allPairs(g: Graph) =
    spark.createDataset(for (s <- 0 until g.n; t <- 0 until g.n) yield (s, t)).toDF("s", "t")

  private def answers(idx: LabelIndex, g: Graph): Map[(Int, Int), (Int, Long)] =
    SparkQueries.evaluate(spark, idx, allPairs(g)).collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> ((r.getInt(2), r.getLong(3)))).toMap

  /** `evaluate` over every ordered pair `s != t`, as the `(s, t, dist, cnt)`
    * bigint table the walk-counting SQL returns.
    */
  private def offDiagonalAnswers(g: Graph, idx: LabelIndex) =
    SparkQueries.evaluate(spark, idx, allPairs(g)).where($"s" =!= $"t")
      .select($"s".cast("long"), $"t".cast("long"), $"dist".cast("long"), $"cnt".cast("long"))
      .toDF("s", "t", "dist", "cnt")

  /** Both-direction edge DataFrame `(src, dst)`: each undirected edge of `g`
    * appears twice, the shape `groundTruthSql` walks.
    */
  private def edgesDF(g: Graph) = {
    val both = for (u <- 0 until g.n; v <- g.nbr(u)) yield (u, v)
    spark.createDataset(both).toDF("src", "dst")
  }

  /** DuckDB full-SQL ground truth for tiny graphs over an oracle table
    * `edges(src,dst)` (both directions): a recursive CTE enumerates all
    * walks up to `maxLen`; walks whose length equals the pairwise minimum
    * are exactly the shortest paths, so their multiplicity is the SPC.
    */
  private def groundTruthSql(maxLen: Int): String =
    s"""WITH RECURSIVE walks(s, t, len) AS (
       |  SELECT CAST(src AS BIGINT), CAST(dst AS BIGINT), 1 FROM edges
       |  UNION ALL
       |  SELECT w.s, CAST(e.dst AS BIGINT), w.len + 1
       |  FROM walks w JOIN edges e ON CAST(e.src AS BIGINT) = w.t
       |  WHERE w.len < $maxLen),
       |agg AS (SELECT s, t, len, CAST(COUNT(*) AS BIGINT) AS c FROM walks GROUP BY s, t, len),
       |mins AS (SELECT s, t, MIN(len) AS d FROM agg GROUP BY s, t)
       |SELECT mins.s AS s, mins.t AS t, mins.d AS dist, agg.c AS cnt
       |FROM mins JOIN agg ON agg.s = mins.s AND agg.t = mins.t AND agg.len = mins.d
       |WHERE mins.s <> mins.t""".stripMargin

  test("evaluate matches LabelIndex.query on the paper example") {
    val g = Graph.paperExample
    val idx = Pspc.build(g, Graph.paperExampleOrder)._1
    val out = answers(idx, g)
    for (s <- 0 until g.n; t <- 0 until g.n) {
      val (d, c) = idx.query(s, t)
      if (d < 0) assert(!out.contains((s, t)))
      else assert(out((s, t)) == ((d, c)), s"($s,$t)")
    }
  }

  test("evaluate answers SPC(v10, v7) = 4 at distance 3 (Example 1)") {
    val g = Graph.paperExample
    val idx = Pspc.build(g, Graph.paperExampleOrder)._1
    val qdf = spark.createDataset(Seq((9, 6))).toDF("s", "t")
    val row = SparkQueries.evaluate(spark, idx, qdf).collect().head
    assert(row.getInt(2) == 3 && row.getLong(3) == 4L)
  }

  test("oracle: index query results equal the DuckDB walk-counting ground truth (paper example)") {
    val g = Graph.paperExample
    val idx = Pspc.build(g, Graph.paperExampleOrder)._1
    Oracle.assertEquivalent(offDiagonalAnswers(g, idx), groundTruthSql(TestUtil.diameter(g)),
                            "edges" -> edgesDF(g))
  }

  test("oracle: index query results equal the walk-counting ground truth (tiny random graph)") {
    val g = GraphGen.largestComponent(GraphGen.erdosRenyi(14, 22, seed = 9))
    val idx = Pspc.build(g, VertexOrder.degreeOrder(g))._1
    Oracle.assertEquivalent(offDiagonalAnswers(g, idx), groundTruthSql(TestUtil.diameter(g)),
                            "edges" -> edgesDF(g))
  }

  test("evaluate on the distributed-built label table matches the reference") {
    val inputs = Seq(
      GraphGen.wattsStrogatz(24, 2, 0.3, seed = 10),
      TestUtil.weightedPath,
      new EquivReduction(GraphGen.star(12)).reducedGraph,
    )
    for (g <- inputs) {
      val out = answers(SparkPspc.build(spark, g, VertexOrder.degreeOrder(g)), g)
      val (dist, cnt) = Reference.allPairs(g)
      for (s <- 0 until g.n; t <- 0 until g.n) {
        if (dist(s)(t) < 0) assert(!out.contains((s, t)))
        else assert(out((s, t)) == ((dist(s)(t), cnt(s)(t))), s"($s,$t) on n=${g.n}")
      }
    }
  }
}
