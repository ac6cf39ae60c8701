package repro.spark

import org.apache.spark.graphx.{Edge, Graph => XGraph}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core.LabelIndex
import repro.graph.Graph
import repro.order.VertexOrder

/** PSPC as a GraphX/RDD job — the repro hint's literal target shape.
  *
  * Vertex attributes carry the *round-(d-1)* label entries; one
  * `aggregateMessages` pass pushes them across edges and merges duplicate
  * hubs by summing counts (distributed Label Merging). The query-pruning
  * rule is two RDD joins: a candidate `(u, w)` fetches `L(u)` (keyed by
  * vertex) and `L(w)` (keyed by hub) and keeps the entry iff no common hub
  * beats distance `d`. All labels for a round are released together — the
  * dependency-free structure the paper introduces.
  */
object GraphxPspc {

  /** Build the label RDD `(v, h, d, c)`. */
  def buildLabels(
      spark: SparkSession,
      g: Graph,
      order: Array[Int],
      maxRounds: Int = 64,
  ): RDD[(Int, Int, Int, Long)] = {
    val sc = spark.sparkContext
    val rank = sc.broadcast(VertexOrder.rankOf(order))
    val weight = sc.broadcast(g.weight)

    val edgeRdd = sc.parallelize(
      g.edges.flatMap { case (u, v) => Seq(Edge(u.toLong, v.toLong, ()), Edge(v.toLong, u.toLong, ())) }.toSeq
    )
    val vertRdd = sc.parallelize((0 until g.n).map(v => (v.toLong, ())))
    val graph = XGraph(vertRdd, edgeRdd).cache()

    // full labels so far, keyed by vertex: v -> Array[(h, d, c)]
    var labels: RDD[(Int, Array[(Int, Int, Long)])] =
      sc.parallelize((0 until g.n).map(v => (v, Array((v, 0, 1L))))).cache()
    // the previous round's entries per vertex: v -> Array[(h, c)]
    var lastRound: RDD[(Long, Array[(Int, Long)])] =
      sc.parallelize((0 until g.n).map(v => (v.toLong, Array((v, 1L))))).cache()

    var round = 1
    var done = false
    while (!done && round <= maxRounds) {
      // ---- propagate: one aggregateMessages pass --------------------------
      val withAttr = graph.outerJoinVertices(lastRound)((_, _, opt) => opt.getOrElse(Array.empty))
      val merged = withAttr
        .aggregateMessages[Map[Int, Long]](
          ctx => {
            val src = ctx.srcId.toInt
            val dst = ctx.dstId.toInt
            val rDst = rank.value(dst)
            if (ctx.srcAttr.nonEmpty) {
              val m = ctx.srcAttr.iterator.collect {
                case (h, c) if rank.value(h) < rDst =>
                  h -> (if (h == src) c else c * weight.value(src))
              }.toMap
              if (m.nonEmpty) ctx.sendToDst(m)
            }
          },
          (m1, m2) => (m1.keySet ++ m2.keySet).iterator
            .map(k => k -> (m1.getOrElse(k, 0L) + m2.getOrElse(k, 0L))).toMap,
        )

      // candidates (u, w, mergedCount)
      val cand: RDD[(Int, (Int, Long))] =
        merged.flatMap { case (vid, m) => m.iterator.map { case (h, c) => (vid.toInt, (h, c)) } }

      // ---- prune: Lemma 4 via two joins -----------------------------------
      val d = round
      val withLu = cand.join(labels) // u -> ((w, c), L(u))
      val byHub = withLu.map { case (u, ((w, c), lu)) => (w, (u, c, lu)) }
      val survivors = byHub.join(labels).flatMap { case (w, ((u, c, lu), lw)) =>
        // min common-hub distance between u and w over L_{<=d-1}
        val dw = lw.iterator.map { case (h, dd, _) => (h, dd) }.toMap
        var minD = Int.MaxValue
        lu.foreach { case (h, dd, _) =>
          dw.get(h).foreach(d2 => if (dd + d2 < minD) minD = dd + d2)
        }
        if (minD < d) None else Some((u, w, d, c))
      }

      val newCount = survivors.cache().count()
      if (newCount == 0L) done = true
      else {
        val newByV = survivors.map { case (u, w, dd, c) => (u, (w, dd, c)) }.groupByKey()
        val updated = labels
          .fullOuterJoin(newByV)
          .mapValues {
            case (Some(old), Some(nw)) => old ++ nw.map { case (w, dd, c) => (w, dd, c) }
            case (Some(old), None)     => old
            case (None, Some(nw))      => nw.map { case (w, dd, c) => (w, dd, c) }.toArray
            case (None, None)          => Array.empty[(Int, Int, Long)]
          }
          .cache()
        updated.count() // materialize before unpersisting the parent
        labels.unpersist()
        labels = updated
        val nextLast = survivors
          .map { case (u, w, _, c) => (u.toLong, (w, c)) }
          .groupByKey()
          .mapValues(_.toArray)
          .cache()
        nextLast.count()
        lastRound.unpersist()
        lastRound = nextLast
        round += 1
      }
      survivors.unpersist()
    }
    labels.flatMap { case (v, lv) => lv.iterator.map { case (h, dd, c) => (v, h, dd, c) } }
  }

  /** Build and collect into an in-memory [[LabelIndex]]. */
  def build(spark: SparkSession, g: Graph, order: Array[Int]): LabelIndex =
    LabelIndex.fromRows(order, g.n, buildLabels(spark, g, order).collect())
}
