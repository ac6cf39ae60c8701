package pspcbench

import repro.core.LabelIndex
import repro.graph.Graph
import scala.collection.mutable

/** Counts checks attempted and failed, keeping the first few failures. */
final class Tally {
  var attempted = 0L
  var failed = 0L
  val firstFailures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  def check(ok: Boolean, what: => String): Boolean = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (firstFailures.length < 10) firstFailures += what
    }
    ok
  }

  /** Run `body`; a throw counts as one failed check and yields `None`. */
  def attempt[T](what: String)(body: => T): Option[T] =
    try Some(body)
    catch {
      case e: Exception =>
        check(ok = false, s"$what threw $e")
        None
    }
}

/** The benchmark's own exact checker. Counts are `BigInt`, so a reference
  * that wraps on overflow the same way as the index cannot hide it.
  */
object Checker {

  /** Distances and exact shortest-path counts from `s` to every vertex
    * (`-1` / `0` when unreachable). The graph is unweighted.
    */
  def bfsExact(g: Graph, s: Int): (Array[Int], Array[BigInt]) = {
    val dist = Array.fill(g.n)(-1)
    val cnt = Array.fill(g.n)(BigInt(0))
    val queue = new Array[Int](g.n)
    var head = 0; var tail = 0
    dist(s) = 0; cnt(s) = BigInt(1)
    queue(tail) = s; tail += 1
    while (head < tail) {
      val u = queue(head); head += 1
      g.foreachNbr(u) { v =>
        if (dist(v) < 0) {
          dist(v) = dist(u) + 1; cnt(v) = cnt(u)
          queue(tail) = v; tail += 1
        } else if (dist(v) == dist(u) + 1) cnt(v) += cnt(u)
      }
    }
    (dist, cnt)
  }

  /** True iff the index answer equals the exact `(dist, count)`. */
  def sameAnswer(got: (Int, Long), dist: Int, cnt: BigInt): Boolean =
    got._1 == dist && BigInt(got._2) == cnt

  /** Check `idx.query(s, t)` against the exact answer for every source in
    * `sources` and every target `t`; one check per pair.
    */
  def checkQueries(idx: LabelIndex, g: Graph, sources: Array[Int], tally: Tally): Unit =
    sources.foreach { s =>
      val (dist, cnt) = bfsExact(g, s)
      var t = 0
      while (t < g.n) {
        val got = idx.query(s, t)
        tally.check(sameAnswer(got, dist(t), cnt(t)),
          s"query($s,$t) = $got, exact (${dist(t)},${cnt(t)})")
        t += 1
      }
    }

  /** True iff both indexes hold the same label multiset at every vertex.
    * Both are built under one order and each list holds a hub at most once,
    * sorted by hub rank, so equal multisets are equal arrays.
    */
  def sameLabels(a: LabelIndex, b: LabelIndex): Boolean =
    a.n == b.n && (0 until a.n).forall { v =>
      java.util.Arrays.equals(a.hubs(v), b.hubs(v)) &&
      java.util.Arrays.equals(a.dists(v), b.dists(v)) &&
      java.util.Arrays.equals(a.cnts(v), b.cnts(v))
    }
}
