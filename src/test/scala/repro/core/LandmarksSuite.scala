package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.{Graph, GraphGen, Reference}
import repro.order.VertexOrder

class LandmarksSuite extends AnyFunSuite {

  /** The rank under which every hub's rank is its vertex id. */
  private def idRank(g: Graph): Array[Int] = Array.range(0, g.n)

  test("selects the k highest-degree vertices") {
    val g = TestUtil.randomPowerLaw(2)
    val lm = new Landmarks(g, 5, idRank(g))
    val byDeg = (0 until g.n).sortBy(v => (-g.deg(v), v)).take(5)
    assert(lm.vertices.toSeq == byDeg)
  }

  test("landmark distances equal BFS distances") {
    val g = TestUtil.randomGraph(30)
    val lm = new Landmarks(g, 4, idRank(g))
    for ((l, i) <- lm.vertices.zipWithIndex) {
      val (d, _) = Reference.bfsSpc(g, l)
      assert((0 until g.n).map(lm.dist(i, _)) == d.toSeq, s"landmark $l")
    }
  }

  test("landmark BFSs on four workers give the same distances as on one") {
    val g = TestUtil.randomPowerLaw(3)
    val one = new Landmarks(g, 20, idRank(g))
    val workers = new Workers(4)
    val four = try new Landmarks(g, 20, idRank(g), workers) finally workers.close()
    assert(four.vertices.toSeq == one.vertices.toSeq)
    for (i <- one.vertices.indices; v <- 0 until g.n)
      assert(four.dist(i, v) == one.dist(i, v), s"landmark ${one.vertices(i)}, vertex $v")
  }

  test("decide never prunes a candidate at its true distance") {
    val g = TestUtil.randomGraph(31)
    val rank = VertexOrder.rankOf(VertexOrder.degreeOrder(g), g.n)
    val lm = new Landmarks(g, 6, rank)
    val (dist, _) = Reference.allPairs(g)
    for (w <- 0 until g.n; u <- 0 until g.n if dist(w)(u) > 0) {
      val d = dist(w)(u)
      assert(lm.decide(rank(w), u, d) != 1, s"($w,$u) at true distance $d")
    }
  }

  test("decide prunes every candidate strictly above the true distance when w is a landmark") {
    val g = TestUtil.randomGraph(32)
    // hubs are ranks: a shuffled order keeps them apart from vertex ids
    val rank = VertexOrder.rankOf(new scala.util.Random(32).shuffle((0 until g.n).toVector).toArray, g.n)
    val lm = new Landmarks(g, 3, rank)
    val (dist, _) = Reference.allPairs(g)
    for (w <- lm.vertices; u <- 0 until g.n if dist(w)(u) >= 0 && w != u) {
      assert(lm.decide(rank(w), u, dist(w)(u) + 1) == 1)
      assert(lm.decide(rank(w), u, dist(w)(u)) == 0)
    }
  }

  test("undecided candidates are reported as -1, never a wrong keep") {
    // every hub that is not a landmark is undecided, at every distance
    val g = GraphGen.cycle(12)
    val lm = new Landmarks(g, 1, idRank(g))
    for (w <- 0 until g.n if !lm.vertices.contains(w); u <- 0 until g.n; d <- 1 to TestUtil.diameter(g) + 1)
      assert(lm.decide(w, u, d) == -1, s"($w,$u) at distance $d")
  }

  test("k larger than n is tolerated") {
    val g = GraphGen.path(4)
    val lm = new Landmarks(g, 4, idRank(g))
    assert(lm.vertices.length == 4)
  }
}
