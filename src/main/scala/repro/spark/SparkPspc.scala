package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core.{LabelIndex, Pspc}
import repro.graph.Graph
import repro.order.VertexOrder

/** PSPC as a Spark job. Round `d` reads only the frozen snapshot
  * `L_{<=d-1}` (paper §III), so the driver broadcasts the label arrays as a
  * [[Pspc.Kernel]], every partition pulls its share of the vertices through
  * that kernel, and the driver appends the collected survivors with the
  * kernel's own `append`. The pruning rules are the threaded builder's;
  * there is no second copy of them. Rounds run until one adds no entry.
  * `SparkQueries.evaluate` answers batch queries from the returned index.
  */
object SparkPspc {

  /** Build the index of `g` under `order` on `spark` (no landmark filter). */
  def build(spark: SparkSession, g: Graph, order: Array[Int]): LabelIndex = {
    val sc = spark.sparkContext
    val kernel = new Pspc.Kernel(g, VertexOrder.rankOf(order, g.n), null)
    val newHubs = new Array[Array[Int]](g.n)
    val newCnts = new Array[Array[Long]](g.n)
    var d = 1
    var added = true
    while (added) {
      val snapshot = sc.broadcast(kernel)
      val round = d
      val survivors =
        try sc.parallelize(0 until g.n, sc.defaultParallelism).mapPartitions { us =>
          val k = snapshot.value
          val s = new Pspc.Scratch(k.n)
          us.flatMap { u =>
            k.pull(u, round, s)
            if (s.outHubs.len == 0) None else Some((u, s.outHubs.toArray, s.outCnts.toArray))
          }
        }.collect()
        finally snapshot.destroy()
      survivors.foreach { case (u, h, c) => newHubs(u) = h; newCnts(u) = c }
      for (u <- 0 until g.n) {
        kernel.append(u, d, newHubs(u), newCnts(u))
        newHubs(u) = null; newCnts(u) = null
      }
      added = survivors.nonEmpty
      d += 1
    }
    LabelIndex.fromArrays(order, kernel.hubs, kernel.dists, kernel.cnts, g.weight)
  }
}
