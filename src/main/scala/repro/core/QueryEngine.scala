package repro.core

import repro.graph.Graph

/** SPC query evaluation over a label index (paper §IV "Query Evaluation in
  * Parallel"): queries are independent, so a batch is split dynamically
  * across threads; each query is the 2-hop merge-intersection of
  * `LabelIndex.query`.
  */
object QueryEngine {

  /** Evaluate a batch with `threads` workers; returns `(dist, cnt)` per
    * query, aligned with the input.
    */
  def batch(idx: LabelIndex, queries: Array[(Int, Int)], threads: Int = 1): Array[(Int, Long)] = {
    val out = new Array[(Int, Long)](queries.length)
    val workers = new Workers(threads)
    try
      workers.dynamic(queries.length, math.max(64, queries.length / (math.max(1, threads) * 8))) {
        (_, from, until) =>
          var i = from
          while (i < until) {
            out(i) = idx.query(queries(i)._1, queries(i)._2)
            i += 1
          }
      }
    finally workers.close()
    out
  }

  /** Deterministic random query workload over the vertices of `g`. */
  def randomQueries(g: Graph, count: Int, seed: Long): Array[(Int, Int)] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(count)((rnd.nextInt(g.n), rnd.nextInt(g.n)))
  }
}
