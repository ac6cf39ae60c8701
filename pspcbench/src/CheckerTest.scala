package pspcbench

import repro.core.{LabelIndex, Pspc}
import repro.graph.Graph
import repro.order.VertexOrder
import scala.collection.immutable.ArraySeq

/** Shows that the benchmark's checker sees failures: a planted wrong answer
  * or label and the 64-diamond chain (true count 2^64, beyond a Long) must
  * each be caught, and clean builds must pass. Exits 0 only if all hold.
  */
object CheckerTest {

  private def graphOf(e: EdgeList): Graph = Graph.fromEdges(e.n, ArraySeq.unsafeWrapArray(e.edges))

  /** Failed checks of a 1-thread build of `g` queried from `sources`, or
    * one failed check if the build throws.
    */
  private def failures(g: Graph, sources: Array[Int], plant: LabelIndex => LabelIndex = identity): Long = {
    val tally = new Tally
    tally.attempt("build")(Pspc.build(g, VertexOrder.degreeOrder(g), 1)._1)
      .foreach(idx => Checker.checkQueries(plant(idx), g, sources, tally))
    println(s"    ${tally.failed} failed of ${tally.attempted}: ${tally.firstFailures.headOption.getOrElse("")}")
    tally.failed
  }

  /** A copy of `idx` whose first non-self entry of vertex `v` has its
    * count raised by one.
    */
  private def plantWrongCount(v: Int)(idx: LabelIndex): LabelIndex = {
    val cnts = idx.cnts.map(_.clone())
    cnts(v)(idx.hubs(v).indexWhere(_ != v)) += 1
    new LabelIndex(idx.order, idx.hubs, idx.dists, cnts)
  }

  def main(args: Array[String]): Unit = {
    val social = graphOf(Inputs.chungLu(300, 8, 2.5, 3))
    val sources = Array(0, 1, 2, social.n - 1)
    val results = Seq(
      "clean build passes" -> (failures(social, sources) == 0),
      "planted wrong (dist, count) fails" -> (failures(social, sources, plantWrongCount(sources(3))) > 0),
      "planted wrong label differs" -> {
        val idx = Pspc.build(social, VertexOrder.degreeOrder(social), 1)._1
        !Checker.sameLabels(idx, plantWrongCount(sources(3))(idx))
      },
      "10-diamond chain passes" -> (failures(graphOf(Inputs.diamondChain(10)), Array(0)) == 0),
      "64-diamond chain (2^64 paths) fails" -> (failures(graphOf(Inputs.diamondChain(64)), Array(0)) > 0),
    )
    results.foreach { case (what, ok) => println(s"${if (ok) "ok  " else "FAIL"} $what") }
    if (!results.forall(_._2)) sys.exit(1)
  }
}
