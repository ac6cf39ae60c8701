package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core.{LabelIndex, Pspc}
import repro.graph.Graph
import scala.collection.immutable.ArraySeq

/** PSPC as a Spark job. Round `d` reads only the frozen snapshot
  * `L_{<=d-1}` (paper §III), so this build's pull phase broadcasts the
  * [[Pspc.Kernel]], pulls every partition's share of the round's frontier
  * through it, and stages the collected survivors on the driver, in the
  * rank order the kernel's pull leaves them in. Everything else, the order
  * check, the round protocol with its frontier and the final merge, is the
  * threaded builder's `Pspc.pipeline`; there is no second copy of it or of
  * the pruning rules. `SparkQueries.evaluate`
  * answers batch queries from the returned index.
  */
object SparkPspc {

  /** Build the index of `g` under `order` on `spark` (no landmark filter). */
  def build(spark: SparkSession, g: Graph, order: Array[Int]): LabelIndex = {
    val sc = spark.sparkContext
    Pspc.pipeline(g, order, threads = 1, numLandmarks = 0) { (_, kernel) => (d, frontier, stage) =>
      val snapshot = sc.broadcast(kernel)
      try sc.parallelize(ArraySeq.unsafeWrapArray(frontier.toArray), sc.defaultParallelism).mapPartitions { us =>
        val k = snapshot.value
        val s = new Pspc.Scratch(k.n)
        us.flatMap { u =>
          k.pull(u, d, s)
          if (s.outHubs.len == 0) None else Some((u, s.outHubs.toArray, s.outCnts.toArray))
        }
      }.collect().foreach { case (u, h, c) => stage(u, h, c) }
      finally snapshot.destroy()
    }._1
  }
}
