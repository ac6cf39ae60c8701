package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.Graph

class LabelIndexSuite extends AnyFunSuite {

  /** Index over per-vertex `(hub, dist, cnt)` lists, via `fromArrays`. */
  private def indexOf(order: Array[Int])(lists: Seq[(Int, Int, Long)]*): LabelIndex =
    LabelIndex.fromArrays(order, lists.map(_.map(_._1).toArray).toArray,
      lists.map(_.map(_._2).toArray).toArray, lists.map(_.map(_._3).toArray).toArray)

  /** Table II, each label list handed over in a scrambled order. */
  private def tableIIIndex: LabelIndex = {
    val rnd = new scala.util.Random(1)
    indexOf(Graph.paperExampleOrder)((0 until 10).map(v => rnd.shuffle(TestUtil.tableII(v).toSeq)): _*)
  }

  test("fromArrays sorts each label list by hub rank") {
    // dists and counts encode their hub, so one left behind by the sort shows
    val order = Array(3, 1, 4, 0, 2)
    val scrambled = Array(2, 0, 4, 1, 3)
    val idx = LabelIndex.fromArrays(order,
      Array.tabulate(5)(v => if (v == 0) scrambled.clone else Array(v)),
      Array.tabulate(5)(v => if (v == 0) scrambled.map(10 + _) else Array(0)),
      Array.tabulate(5)(v => if (v == 0) scrambled.map(100L * _) else Array(1L)))
    assert(idx.hubs(0).toSeq == order.toSeq)
    assert(idx.dists(0).toSeq == order.toSeq.map(10 + _))
    assert(idx.cnts(0).toSeq == order.toSeq.map(100L * _))

    val t = tableIIIndex
    for (v <- 0 until 10) {
      val ranks = t.hubs(v).map(t.rank)
      assert(ranks.toSeq == ranks.sorted.toSeq, s"vertex $v")
      assert(t.labelOf(v).toSet == TestUtil.tableII(v), s"vertex $v")
    }
  }

  test("a label list holding the same hub twice is rejected") {
    val e = intercept[IllegalArgumentException](
      indexOf(Array(0, 1))(Seq((0, 0, 1L), (1, 1, 1L), (0, 2, 1L)), Seq((1, 0, 1L))))
    assert(e.getMessage.contains("vertex 0 holds hub 0 twice"))
  }

  test("a label list holding the same hub twice is rejected when sorted on four workers") {
    // the bad list sits among many good ones, so the pool splits the work
    val n = 500
    val order = Array.range(0, n)
    val hubs = Array.tabulate(n)(v => if (v == 321) Array(0, v, 0) else Array(0, v).distinct)
    val workers = new Workers(4)
    val e =
      try intercept[IllegalArgumentException](
        LabelIndex.fromArrays(order, hubs, hubs.map(_.map(_ => 1)), hubs.map(_.map(_ => 1L)),
          workers = workers))
      finally workers.close()
    assert(e.getMessage.contains("vertex 321 holds hub 0 twice"))
  }

  test("query reproduces the paper's Example 1: SPC(v10, v7) = 4 at distance 3") {
    val (d, c) = tableIIIndex.query(9, 6)
    assert(d == 3 && c == 4L)
  }

  test("query of a vertex with itself returns (0, 1)") {
    for (v <- 0 until 10) assert(tableIIIndex.query(v, v) == ((0, 1L)))
  }

  test("query is symmetric on the undirected example") {
    val idx = tableIIIndex
    for (s <- 0 until 10; t <- 0 until 10)
      assert(idx.query(s, t) == idx.query(t, s), s"pair ($s,$t)")
  }

  test("query with no common hub returns (-1, 0)") {
    val order = Array(0, 1)
    val idx = indexOf(order)(Seq((0, 0, 1L)), Seq((1, 0, 1L)))
    assert(idx.query(0, 1) == ((-1, 0L)))
  }

  test("query sums counts over all hubs at the minimal distance") {
    // two common hubs at the same total distance: counts add up
    val order = Array(0, 1, 2, 3)
    val idx = indexOf(order)(
      Seq((0, 1, 2L), (1, 1, 3L), (2, 0, 1L)),
      Seq((0, 1, 5L), (1, 1, 7L), (3, 0, 1L)),
      Seq((2, 0, 1L)),
      Seq((3, 0, 1L)),
    )
    assert(idx.query(0, 1) == ((2, 2L * 5 + 3L * 7)))
  }

  test("query ignores hubs at non-minimal distance") {
    val order = Array(0, 1, 2, 3)
    val idx = indexOf(order)(
      Seq((0, 1, 2L), (1, 3, 100L), (2, 0, 1L)),
      Seq((0, 2, 5L), (1, 1, 100L), (3, 0, 1L)),
      Seq((2, 0, 1L)),
      Seq((3, 0, 1L)),
    )
    assert(idx.query(0, 1) == ((3, 10L)))
  }

  test("hub weight multiplies only when the hub is interior") {
    val order = Array(0, 1, 2)
    val lists = indexOf(order)(
      Seq((0, 0, 1L), (1, 1, 1L)),
      Seq((1, 0, 1L)),
      Seq((1, 1, 1L), (2, 0, 1L)),
    )
    val idx = new LabelIndex(order, lists.hubs, lists.dists, lists.cnts, Array(1L, 4L, 1L))
    // hub 1 interior between 0 and 2: weight applies
    assert(idx.query(0, 2) == ((2, 4L)))
    // hub 1 is an endpoint of (0,1): weight must not apply
    assert(idx.query(0, 1) == ((1, 1L)))
  }

  test("entryCount and size accounting") {
    val idx = tableIIIndex
    val expected = TestUtil.tableII.values.map(_.size).sum
    assert(idx.entryCount == expected)
    assert(idx.sizeBytes == expected * 16L)
    assert(math.abs(idx.sizeMB - expected * 16.0 / 1024 / 1024) < 1e-12)
  }

  test("canonical form is order-insensitive for entry insertion") {
    val order = Array(0, 1)
    val a = indexOf(order)(Seq((0, 0, 1L), (1, 1, 1L)), Seq((1, 0, 1L)))
    val b = indexOf(order)(Seq((1, 1, 1L), (0, 0, 1L)), Seq((1, 0, 1L)))
    TestUtil.assertSameLabels(a, b)
  }
}
