package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.LabelIndex

/** Batch SPC query evaluation on Spark. The queries are independent (paper
  * §IV), so the driver broadcasts the [[LabelIndex]] once and every
  * partition answers its pairs with `LabelIndex.query`, the one
  * implementation of Equations 1–2. Vertex weights travel with the index.
  *
  * The DuckDB recursive walk count (`groundTruthSql`) is the oracle check
  * of these answers (`SparkQueriesSuite`); it does not depend on
  * `Reference`.
  */
object SparkQueries {

  /** @param idx     the label index to answer from
    * @param queries query DataFrame `(s, t)` of integer vertex ids
    * @return `(s, t, dist, cnt)` — one row per answerable query pair; a
    *         pair with no common hub (disconnected) produces no row
    */
  def evaluate(spark: SparkSession, idx: LabelIndex, queries: DataFrame): DataFrame = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(idx)
    queries.select($"s", $"t").as[(Int, Int)].mapPartitions { pairs =>
      val ix = bc.value
      pairs.flatMap { case (s, t) =>
        val (d, c) = ix.query(s, t)
        if (d < 0) None else Some((s, t, d, c))
      }
    }.toDF("s", "t", "dist", "cnt")
  }

  /** DuckDB full-SQL ground truth for tiny graphs over an oracle table
    * `edges(src,dst)` (both directions): a recursive CTE enumerates all
    * walks up to `maxLen`; walks whose length equals the pairwise minimum
    * are exactly the shortest paths, so their multiplicity is the SPC.
    */
  def groundTruthSql(maxLen: Int): String =
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
}
