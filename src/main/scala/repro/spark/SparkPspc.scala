package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.LabelIndex
import repro.graph.Graph
import repro.order.VertexOrder

/** PSPC as a distributed dataflow on the DataFrame/Catalyst API.
  *
  * This is the reproduction target of the repro hint: because PSPC's round
  * `d` depends only on the frozen snapshot `L_{<=d-1}`, each round is a
  * handful of joins and one `groupBy(v, h).sum(c)` — Label Merging becomes
  * a distributed aggregation, and the query-pruning rule becomes an
  * anti-join against a common-hub self-join. No step carries the
  * vertex-order dependency that makes HP-SPC inherently sequential.
  *
  * Round `d` dataflow (labels `(v, h, d, c)`):
  * {{{
  *   cand = L_{d-1} ⋈ edges(src=v)                        // push along edges
  *          |> c * (weight(src) unless h = src)           // interior weight
  *          |> groupBy(dst, h).sum(c)                     // Label Merging
  *          |> filter rank(h) < rank(dst)                 // Lemma 3
  *   viol = cand ⋈ L(v) ⋈ L(h) on common hub x
  *          |> filter d(v,x) + d(x,h) < d                 // Lemma 4
  *   L_d  = cand anti-join viol
  * }}}
  */
object SparkPspc {

  /** Build the full label DataFrame `(v, h, d, c)` for graph `g` under
    * `order`. `maxRounds` bounds the iteration (diameter + 1 suffices).
    */
  def buildLabels(
      spark: SparkSession,
      g: Graph,
      order: Array[Int],
      maxRounds: Int = 64,
  ): DataFrame = {
    import spark.implicits._
    val rank = VertexOrder.rankOf(order)
    val meta = spark
      .createDataset((0 until g.n).map(v => (v, rank(v), g.weight(v))))
      .toDF("mv", "mrank", "mweight")
      .cache()
    val edges = g.edgesDF(spark).cache()

    // L_0: every vertex is its own hub at distance 0, count 1.
    var all = spark
      .createDataset((0 until g.n).map(v => (v, v, 0, 1L)))
      .toDF("v", "h", "d", "c")
      .localCheckpoint()
    var last = all
    var round = 1
    var done = false
    while (!done && round <= maxRounds) {
      val cand = last
        .join(edges, last("v") === edges("src"))
        .join(meta, edges("src") === meta("mv"))
        .select(
          edges("dst").as("v"),
          last("h").as("h"),
          (last("c") * when(last("h") === edges("src"), lit(1L)).otherwise(meta("mweight")))
            .as("c"),
        )
        .groupBy($"v", $"h")
        .agg(sum($"c").as("c"))
        .join(meta.select($"mv", $"mrank".as("rankv")), $"v" === $"mv")
        .drop("mv")
        .join(meta.select($"mv", $"mrank".as("rankh")), $"h" === $"mv")
        .filter($"rankh" < $"rankv")
        .select($"v", $"h", $"c")
        .localCheckpoint()

      val a = all.select($"v".as("av"), $"h".as("ah"), $"d".as("ad"))
      val b = all.select($"v".as("bv"), $"h".as("bh"), $"d".as("bd"))
      val viol = cand
        .join(a, cand("v") === a("av"))
        .join(b, cand("h") === b("bv") && a("ah") === b("bh"))
        .where($"ad" + $"bd" < lit(round))
        .select(cand("v"), cand("h"))
        .distinct()

      val newLabels = cand
        .join(viol, Seq("v", "h"), "left_anti")
        .select($"v", $"h", lit(round).as("d"), $"c")
        .localCheckpoint()

      if (newLabels.isEmpty) done = true
      else {
        all = all.union(newLabels).localCheckpoint()
        last = newLabels
        round += 1
      }
    }
    meta.unpersist()
    edges.unpersist()
    all
  }

  /** Convenience: build on Spark, collect into an in-memory [[LabelIndex]]
    * for equality tests against the threaded builder.
    */
  def build(spark: SparkSession, g: Graph, order: Array[Int]): LabelIndex = {
    import spark.implicits._
    LabelIndex.fromRows(order, g.n, buildLabels(spark, g, order).as[(Int, Int, Int, Long)].collect())
  }
}
