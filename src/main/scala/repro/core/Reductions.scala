package repro.core

import repro.graph.Graph
import scala.collection.mutable

/** Index-size reductions (paper §IV). Both shrink the graph *before*
  * labeling and adjust queries afterwards, so they compose with any of the
  * index builders — sequential, threaded, or Spark — without touching the
  * parallel paradigm.
  */
object Reductions {

  /** Reduction by 1-shell (§IV-A): iteratively peel degree-1 vertices. The
    * peeled vertices form trees, each hanging off its anchor `shr(v)` in
    * the remaining core by a single cut vertex, so
    * `SPC(s,t) = SPC_core(shr(s), shr(t))` and `SPC` within one tree is 1.
    */
  final class OneShell(val g: Graph) {
    /** true iff the vertex survived peeling (2-core plus tree roots). */
    val inCore: Array[Boolean] = Array.fill(g.n)(true)

    /** anchor core vertex; `shr(v) = v` for core vertices. */
    val shr: Array[Int] = Array.tabulate(g.n)(identity)

    val (coreGraph: Graph, coreOldId: Array[Int]) = {
      val degArr = Array.tabulate(g.n)(g.deg)
      val attach = Array.fill(g.n)(-1)
      val peelSeq = mutable.ArrayBuffer.empty[Int]
      val stack = mutable.ArrayDeque.empty[Int]
      for (v <- 0 until g.n if degArr(v) == 1) stack.append(v)
      while (stack.nonEmpty) {
        val v = stack.removeHead()
        if (inCore(v) && degArr(v) == 1) {
          inCore(v) = false
          peelSeq += v
          g.foreachNbr(v) { u =>
            if (inCore(u)) {
              attach(v) = u
              degArr(u) -= 1
              if (degArr(u) == 1) stack.append(u)
            }
          }
        }
      }
      // resolve anchors in reverse peel order: the attachment vertex is
      // peeled later (or is core), so its shr is already final
      for (v <- peelSeq.reverseIterator) shr(v) = if (inCore(attach(v))) attach(v) else shr(attach(v))
      g.inducedSubgraph(inCore)
    }

    /** original vertex id -> core graph id (−1 for peeled vertices). */
    val coreId: Array[Int] = {
      val a = Array.fill(g.n)(-1)
      coreOldId.zipWithIndex.foreach { case (old, nw) => a(old) = nw }
      a
    }

    /** Answer `SPC(s,t)` on the original graph via a core index. */
    def spc(coreIdx: LabelIndex, s: Int, t: Int): Long = {
      if (s == t) return 1L
      val as = shr(s); val at = shr(t)
      if (as == at) 1L
      else coreIdx.query(coreId(as), coreId(at))._2
    }
  }

  /** Reduction by neighborhood equivalence (§IV-B): vertices with identical
    * neighborhoods (after removing each other when adjacent) collapse into
    * one weighted representative. Shortest paths never visit two members of
    * a class, so a path through a class counts `|class|` times — exactly
    * the weighted trough counting the builders implement.
    */
  final class EquivReduction(val g: Graph) {

    /** original vertex -> representative original vertex. */
    val rep: Array[Int] = {
      // group by signature: non-adjacent twins share nbr(v); adjacent
      // twins share nbr(v) ∪ {v}
      val repArr = Array.tabulate(g.n)(identity)
      val merged = new Array[Boolean](g.n) // touched by the first pass
      // pass 1: non-adjacent twins (identical neighbor sets)
      val byNbr = mutable.HashMap.empty[Seq[Int], Int]
      for (v <- 0 until g.n) byNbr.get(g.nbr(v).toSeq) match {
        case Some(r) => repArr(v) = r; merged(v) = true; merged(r) = true
        case None    => byNbr(g.nbr(v).toSeq) = v
      }
      // pass 2: adjacent twins (identical closed neighborhoods), restricted
      // to vertices the first pass left alone — one class never mixes the
      // two twin types, so each class is either an independent set or a
      // clique and the query-time distance rule below stays exact
      val byClosed = mutable.HashMap.empty[Seq[Int], Int]
      for (v <- 0 until g.n if !merged(v)) byClosed.get((g.nbr(v) :+ v).sorted.toSeq) match {
        case Some(r) => repArr(v) = r
        case None    => byClosed((g.nbr(v) :+ v).sorted.toSeq) = v
      }
      repArr
    }

    /** class size of each representative (0 for non-representatives). */
    val classSize: Array[Long] = {
      val a = new Array[Long](g.n)
      for (v <- 0 until g.n) a(rep(v)) += 1L
      a
    }

    val (reducedGraph: Graph, redOldId: Array[Int]) = {
      val keep = Array.tabulate(g.n)(v => rep(v) == v)
      val reps = (0 until g.n).filter(keep).toArray
      val redIdOf = Array.fill(g.n)(-1)
      reps.zipWithIndex.foreach { case (v, i) => redIdOf(v) = i }
      val es = mutable.ArrayBuffer.empty[(Int, Int)]
      for ((u, v) <- g.edges) {
        val ru = redIdOf(rep(u)); val rv = redIdOf(rep(v))
        if (ru != rv) es += ((ru, rv))
      }
      (Graph.fromEdges(reps.length, es, reps.map(classSize)), reps)
    }

    /** original vertex -> reduced graph id of its representative. */
    val redId: Array[Int] = {
      val a = Array.fill(g.n)(-1)
      redOldId.zipWithIndex.foreach { case (old, nw) => a(old) = nw }
      Array.tabulate(g.n)(v => a(rep(v)))
    }

    /** Answer `(dist, SPC)` for original vertices via a reduced-graph
      * index built with weighted counting.
      */
    def spc(redIdx: LabelIndex, s: Int, t: Int): (Int, Long) = {
      if (s == t) return (0, 1L)
      if (rep(s) == rep(t)) {
        // s ≡ t: adjacent twins are at distance 1 with a unique path;
        // non-adjacent twins are at distance 2 via every common neighbor
        if (g.hasEdge(s, t)) (1, 1L)
        else if (g.deg(s) == 0) (-1, 0L)
        else {
          var c = 0L
          reducedGraph.foreachNbr(redId(s))(u => c += reducedGraph.weight(u))
          (2, c)
        }
      } else {
        redIdx.query(redId(s), redId(t))
      }
    }
  }
}
