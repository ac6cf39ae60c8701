package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core.{LabelIndex, Pspc}
import repro.graph.Graph
import scala.collection.immutable.ArraySeq

/** PSPC as a Spark job. Round `d` reads only the frozen snapshot
  * `L_{<=d-1}` (paper §III), so this build's pull phase sweeps the
  * kernel's frontier flags into an array on the driver, broadcasts the
  * [[Pspc.Kernel]], pulls every partition's share of the frontier through
  * it, and stages the collected survivors, one block per vertex in the
  * rank order the kernel's pull leaves them in, in the driver's one
  * scratch. Everything else, the order check, the round protocol with its
  * appends and frontier flags, and the final sort, is the threaded
  * builder's `Pspc.pipeline`; there is no second copy of it or of the
  * pruning rules. `SparkQueries.evaluate` answers batch queries from the
  * returned index.
  */
object SparkPspc {

  /** Build the index of `g` under `order` on `spark` (no landmark filter). */
  def build(spark: SparkSession, g: Graph, order: Array[Int]): LabelIndex = {
    val sc = spark.sparkContext
    Pspc.pipeline(g, order, threads = 1, numLandmarks = 0) { (_, kernel) => (d, scratches) =>
      val frontier = (0 until g.n).filter(kernel.flagged).toArray
      frontier.foreach(kernel.flagged(_) = false)
      val snapshot = sc.broadcast(kernel)
      try sc.parallelize(ArraySeq.unsafeWrapArray(frontier), sc.defaultParallelism).mapPartitions { us =>
        val k = snapshot.value
        val s = new Pspc.Scratch(k.n)
        us.foreach(k.pull(_, d, s))
        Iterator((s.staged.toArray, s.hubs.toArray, s.cnts.toArray))
      }.collect().foreach { case (blocks, h, c) => scratches(0).stage(blocks, h, c) }
      finally snapshot.destroy()
    }._1
  }
}
