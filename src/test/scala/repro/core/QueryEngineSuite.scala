package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.Reference
import repro.order.VertexOrder

class QueryEngineSuite extends AnyFunSuite {

  private lazy val g = TestUtil.randomPowerLaw(7)
  private lazy val idx = Pspc.build(g, VertexOrder.degreeOrder(g))._1

  test("batch with one thread matches per-query evaluation") {
    val qs = QueryEngine.randomQueries(g, 500, seed = 1)
    val out = QueryEngine.batch(idx, qs, threads = 1)
    qs.zip(out).foreach { case ((s, t), r) => assert(r == idx.query(s, t)) }
  }

  test("batch answers a weighted path like the reference") {
    val wg = TestUtil.weightedPath
    val widx = Pspc.build(wg, VertexOrder.degreeOrder(wg))._1
    val qs = for (s <- Array.range(0, wg.n); t <- Array.range(0, wg.n)) yield (s, t)
    val (dist, cnt) = Reference.allPairs(wg)
    QueryEngine.batch(widx, qs, threads = 2).zip(qs).foreach { case (r, (s, t)) =>
      assert(r == ((dist(s)(t), cnt(s)(t))), s"pair ($s,$t)")
    }
  }

  for (threads <- Seq(2, 4, 8)) {
    test(s"parallel batch with $threads threads matches sequential") {
      val qs = QueryEngine.randomQueries(g, 1000, seed = 2)
      val seq = QueryEngine.batch(idx, qs, threads = 1)
      val par = QueryEngine.batch(idx, qs, threads = threads)
      assert(seq.toSeq == par.toSeq)
    }
  }

  test("randomQueries is deterministic in the seed and in range") {
    val a = QueryEngine.randomQueries(g, 100, seed = 3)
    val b = QueryEngine.randomQueries(g, 100, seed = 3)
    assert(a.toSeq == b.toSeq)
    assert(a.forall { case (s, t) => s >= 0 && s < g.n && t >= 0 && t < g.n })
  }

  test("empty batch") {
    assert(QueryEngine.batch(idx, Array.empty, threads = 4).isEmpty)
  }
}
