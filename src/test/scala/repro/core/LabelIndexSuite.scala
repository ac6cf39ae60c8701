package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.Graph
import repro.order.VertexOrder

class LabelIndexSuite extends AnyFunSuite {

  /** Index over per-vertex `(hub, dist, cnt)` lists in any entry order:
    * each hub becomes its rank under `order`, and each list is sorted by it.
    */
  private def indexOf(order: Array[Int])(lists: Seq[(Int, Int, Long)]*): LabelIndex = {
    val rank = VertexOrder.rankOf(order, lists.length)
    val sorted = lists.map(_.map { case (h, d, c) => (rank(h), d, c) }.sortBy(_._1))
    new LabelIndex(order, sorted.map(_.map(_._1).toArray).toArray,
      sorted.map(_.map(_._2).toArray).toArray, sorted.map(_.map(_._3).toArray).toArray)
  }

  /** Table II, each label list handed over in a scrambled order. */
  private def tableIIIndex: LabelIndex = {
    val rnd = new scala.util.Random(1)
    indexOf(Graph.paperExampleOrder)((0 until 10).map(v => rnd.shuffle(TestUtil.tableII(v).toSeq)): _*)
  }

  test("a label list holding the same hub twice is rejected") {
    // rank lists straight to the constructor; under this order rank 1 is
    // vertex 0, so the message names the hub as a vertex
    val order = Array(1, 0)
    def rejected(list0: Array[Int]): String = intercept[IllegalArgumentException](
      new LabelIndex(order, Array(list0, Array(0)), Array(list0.map(_ => 1), Array(0)),
        Array(list0.map(_ => 1L), Array(1L)))).getMessage
    assert(rejected(Array(0, 1, 1)).contains("vertex 0 holds hub 0 twice"))
    assert(rejected(Array(1, 0)).contains("vertex 0 is not ascending in hub rank"))
    assert(rejected(Array(-1, 1)).contains("vertex 0 holds hub rank -1, outside 0 until 2"))
    assert(rejected(Array(0, 2)).contains("vertex 0 holds hub rank 2, outside 0 until 2"))
    // the three arrays of a vertex must be equally long, else a query reads past one
    val hubs = Array(Array(0, 1), Array(0)); val dists = Array(Array(0, 1), Array(0))
    val cnts = Array(Array(1L, 1L), Array(1L))
    assert(intercept[IllegalArgumentException](new LabelIndex(order, hubs, dists.map(_.take(0)), cnts))
      .getMessage.contains("label list of vertex 0 has 2 hubs, 0 distances and 2 counts"))
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
    // vertex 1 weighs 4; under the second order it has rank 0, so a weight
    // lookup or an endpoint test on the rank instead of the vertex shows
    for (order <- Seq(Array(0, 1, 2), Array(1, 2, 0))) {
      val lists = indexOf(order)(
        Seq((0, 0, 1L), (1, 1, 1L)),
        Seq((1, 0, 1L)),
        Seq((1, 1, 1L), (2, 0, 1L)),
      )
      val idx = new LabelIndex(order, lists.hubs, lists.dists, lists.cnts, Array(1L, 4L, 1L))
      // hub 1 interior between 0 and 2: weight applies
      assert(idx.query(0, 2) == ((2, 4L)), s"order ${order.toSeq}")
      // hub 1 is an endpoint of (0,1): weight must not apply
      assert(idx.query(0, 1) == ((1, 1L)), s"order ${order.toSeq}")
    }
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
