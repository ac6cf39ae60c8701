package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.LabelIndex

/** Batch SPC query evaluation on Spark. The queries are independent (paper
  * §IV), so the driver broadcasts the [[LabelIndex]] once and every
  * partition answers its pairs with `LabelIndex.query`, the one
  * implementation of Equations 1–2. Vertex weights travel with the index.
  * `SparkQueriesSuite` checks these answers against a DuckDB recursive
  * walk count, which does not depend on `Reference`.
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

}
