package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.Reference
import repro.order.VertexOrder

/** Path counts are exact or the build or query fails loudly: a chain of
  * `k` diamonds has `2^k` shortest paths end to end, beyond a `Long` from
  * `k = 63` on.
  */
class ExactCountsSuite extends AnyFunSuite {

  for (k <- Seq(62, 63, 64, 70)) {
    test(s"a chain of $k diamonds is counted exactly or fails loudly") {
      val g = TestUtil.diamondChain(k)
      val order = VertexOrder.degreeOrder(g)
      val exact = (0 until g.n).map(Reference.bfsSpcExact(g, _))
      val fits = exact.forall(_._2.forall(_.isValidLong))
      assert(fits == (k < 63))
      val builders = Seq[(String, () => LabelIndex)](
        "PSPC, 1 thread" -> (() => Pspc.build(g, order)._1),
        "PSPC, 4 threads, 5 landmarks" -> (() => Pspc.build(g, order, threads = 4, numLandmarks = 5)._1),
        "HP-SPC" -> (() => HpSpc.build(g, order)),
      )
      for ((name, build) <- builders) withClue(s"$name: ") {
        val built = try Right(build()) catch { case e: ArithmeticException => Left(e) }
        built match {
          case Left(e) =>
            assert(!fits, s"the build threw $e though every count fits a Long")
            assert(e.getMessage.matches("the path count of vertex \\d+ at hub \\d+ exceeds a Long"), e.getMessage)
          case Right(idx) =>
            for (s <- 0 until g.n; t <- 0 until g.n) {
              val (dist, cnt) = (exact(s)._1(t), exact(s)._2(t))
              if (cnt.isValidLong) assert(idx.query(s, t) == ((dist, cnt.toLong)), s"($s,$t)")
              else {
                val e = intercept[ArithmeticException](idx.query(s, t))
                assert(e.getMessage.contains(s"($s, $t)"))
              }
            }
        }
      }
    }
  }
}
