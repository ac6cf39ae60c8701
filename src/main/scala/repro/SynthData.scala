package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic graph edge tables. The paper (PSPC, ICDE'23) evaluates on
  * graphs; these generators expose the synthetic dataset analogues
  * (repro.graph.GraphGen) as both-direction (src, dst) edge DataFrames — the
  * input shape of `Graph.fromDataFrame` and of the DuckDB ground-truth
  * oracle. Deterministic in their parameters, so the oracle sees identical
  * input.
  */
object SynthData {

  /** Edge table of the analogue of a paper dataset (key in Table III:
    * FB, GW, WI, GO, DB, BE, YT, PE, FL, IN). Deterministic in (key, scale).
    */
  def graphEdges(spark: SparkSession, datasetKey: String, scale: Double = 1.0): DataFrame = {
    val spec = repro.graph.GraphGen.datasetSpecs
      .find(_.key == datasetKey)
      .getOrElse(throw new IllegalArgumentException(s"unknown dataset key $datasetKey"))
    repro.graph.GraphGen.analogue(spec, scale).edgesDF(spark)
  }

  /** Edge table of a deterministic power-law (Chung-Lu) graph. */
  def powerLawEdges(spark: SparkSession, n: Int, avgDeg: Double,
                    gamma: Double = 2.5, seed: Long = 0): DataFrame =
    repro.graph.GraphGen.chungLu(n, avgDeg, gamma, seed).edgesDF(spark)

  /** Edge table of the road-network stand-in (perturbed grid). */
  def roadEdges(spark: SparkSession, rows: Int, cols: Int,
                drop: Double = 0.12, seed: Long = 42): DataFrame =
    repro.graph.GraphGen.roadGrid(rows, cols, drop, seed).edgesDF(spark)
}
