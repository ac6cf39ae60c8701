package repro.exp

import repro.core._
import repro.graph.{Graph, GraphGen}
import repro.graph.GraphGen.DatasetSpec
import repro.order.VertexOrder

/** Shared harness for the paper's experiments (Exp 1–8 + Table III).
  *
  * Each function returns plain row data; the bench suites format it. Every
  * PSPC index time is the build's wall clock, final `LabelIndex` assembly
  * included. Results per dataset are cached so the Exp 1/2/3 suites reuse
  * one set of builds (the paper also reports one build per dataset across
  * those figures).
  */
object Experiments {

  /** Worker threads for "PSPC⁺": the paper uses 20; here the machine's
    * core count, capped at 16.
    */
  val MaxThreads: Int = math.min(16, Runtime.getRuntime.availableProcessors())

  /** Paper default number of landmarks. */
  val DefaultLandmarks = 100

  def timeMs[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e6)
  }

  /** One build+query measurement for one algorithm on one dataset. */
  final case class AlgoRow(
      algo: String,
      indexMs: Double,
      sizeMB: Double,
      entries: Long,
      queryUs: Double,
  )

  /** Everything Exp 1/2/3 need for one dataset; `hpSig*` is HP-SPC under
    * the significant-path order, whose build also chooses the order.
    */
  final case class DatasetResult(
      spec: DatasetSpec,
      n: Int,
      m: Long,
      avgDeg: Double,
      orderMs: Double,
      hp: AlgoRow,
      hpSigMs: Double,
      hpSigEntries: Long,
      pspc1: AlgoRow,
      pspcP: AlgoRow,
  )

  private val cache = scala.collection.concurrent.TrieMap.empty[String, DatasetResult]

  /** Number of random queries for Exp 3 (paper: 100k; scaled: 20k). */
  val QueryCount = 20000

  /** Microseconds per query of `queries` answered as one batch: the median
    * of 5 batches, so one JIT or scheduler pause does not decide a cell.
    */
  private def measureQueries(
      idx: LabelIndex,
      queries: Array[(Int, Int)],
      threads: Int,
  ): Double = {
    val ms = Array.fill(5)(timeMs(QueryEngine.batch(idx, queries, threads))._2)
    java.util.Arrays.sort(ms)
    ms(2) * 1000.0 / queries.length
  }

  /** Build HP-SPC_s, HP-SPC under the significant-path order, PSPC(1T) and
    * PSPC⁺(MaxThreads) on the analogue of `spec` and measure index time,
    * size and mean query time. Every index time is the ordering time plus
    * the build's wall clock, which includes the final `LabelIndex` assembly.
    */
  def datasetResult(spec: DatasetSpec, scale: Double = 1.0): DatasetResult =
    cache.getOrElseUpdate(
      s"${spec.key}@$scale", {
        val g = GraphGen.analogue(spec, scale)
        val (order, orderMs) = timeMs(VertexOrder.degreeOrder(g))
        val queries = QueryEngine.randomQueries(g, QueryCount, seed = 7)

        val (hpIdx, hpMs) = timeMs(HpSpc.build(g, order))
        val hpQ = measureQueries(hpIdx, queries, 1)
        val ((sigIdx, _), sigMs) = timeMs(HpSpc.buildWithSignificantPathOrder(g))

        val ((p1Idx, _), p1Ms) = timeMs(
          Pspc.build(g, order, threads = 1, numLandmarks = DefaultLandmarks)
        )
        val p1Q = measureQueries(p1Idx, queries, 1)

        val ((ppIdx, _), ppMs) = timeMs(
          Pspc.build(g, order, threads = MaxThreads, schedule = Pspc.DynamicSchedule,
                     numLandmarks = DefaultLandmarks)
        )
        val ppQ = measureQueries(ppIdx, queries, MaxThreads)

        DatasetResult(
          spec, g.n, g.m.toLong, g.avgDeg, orderMs,
          AlgoRow("HP-SPC_s", orderMs + hpMs, hpIdx.sizeMB, hpIdx.entryCount, hpQ),
          sigMs, sigIdx.entryCount,
          AlgoRow("PSPC", orderMs + p1Ms, p1Idx.sizeMB, p1Idx.entryCount, p1Q),
          AlgoRow("PSPC+", orderMs + ppMs, ppIdx.sizeMB, ppIdx.entryCount, ppQ),
        )
      },
    )

  /** Exp 4: index + query time for each thread count on one dataset. */
  final case class SpeedupRow(threads: Int, indexMs: Double, queryUs: Double)

  /** The best of two runs of `body`, to damp one-off GC/JIT pauses. */
  private def bestOf2(body: => Double): Double = math.min(body, body)

  /** Wall clock of one PSPC build, final `LabelIndex` assembly included. */
  private def buildMs(
      g: Graph,
      order: Array[Int],
      threads: Int = MaxThreads,
      schedule: Pspc.Schedule = Pspc.DynamicSchedule,
      numLandmarks: Int = DefaultLandmarks,
  ): Double = timeMs(Pspc.build(g, order, threads, schedule, numLandmarks))._2

  /** Best of 2 per thread count; the index does not depend on the thread
    * count, so one build serves every query row.
    */
  def speedupSweep(spec: DatasetSpec, threadCounts: Seq[Int], scale: Double = 1.0): Seq[SpeedupRow] = {
    val g = GraphGen.analogue(spec, scale)
    val order = VertexOrder.degreeOrder(g)
    val queries = QueryEngine.randomQueries(g, QueryCount, seed = 11)
    val idx = Pspc.build(g, order, MaxThreads, numLandmarks = DefaultLandmarks)._1
    threadCounts.map { t =>
      SpeedupRow(t, bestOf2(buildMs(g, order, t)), bestOf2(measureQueries(idx, queries, t)))
    }
  }

  /** Exp 5(a): landmark labeling on/off at MaxThreads (best of 2 runs each
    * to remove cold-start bias at this scale).
    */
  def ablationLandmarks(spec: DatasetSpec, scale: Double = 1.0): (Double, Double) = {
    val g = GraphGen.analogue(spec, scale)
    val order = VertexOrder.degreeOrder(g)
    (bestOf2(buildMs(g, order)), bestOf2(buildMs(g, order, numLandmarks = 0)))
  }

  /** Exp 5(b): dynamic vs static schedule at MaxThreads (best of 2). */
  def ablationSchedule(spec: DatasetSpec, scale: Double = 1.0): (Double, Double) = {
    val g = GraphGen.analogue(spec, scale)
    val order = VertexOrder.degreeOrder(g)
    (bestOf2(buildMs(g, order)), bestOf2(buildMs(g, order, schedule = Pspc.StaticSchedule)))
  }

  /** Exp 5(c): node orders (degree / tree-decomposition / hybrid) at
    * MaxThreads on a road-like graph (where the distinction matters).
    */
  final case class OrderRow(
      order: String,
      orderMs: Double,
      indexMs: Double, // ordering + the build's wall clock
      lcMs: Double,    // LL + LC only — the term that dominates at paper scale
      sizeMB: Double,
  )

  def ablationOrders(g: Graph, delta: Int = 5): Seq[OrderRow] = {
    def run(name: String, mk: => Array[Int]): OrderRow = {
      val (order, oMs) = timeMs(mk)
      val ((idx, stats), ms) = timeMs(Pspc.build(g, order, MaxThreads, numLandmarks = DefaultLandmarks))
      OrderRow(name, oMs, oMs + ms, stats.llMs + stats.lcMs, idx.sizeMB)
    }
    Seq(
      run("degree", VertexOrder.degreeOrder(g)),
      run("tree-decomp", VertexOrder.treeDecompOrder(g)),
      run(s"hybrid(δ=$delta)", VertexOrder.hybridOrder(g, delta)),
    )
  }

  /** Exp 6: δ sweep of the hybrid order. */
  final case class DeltaRow(delta: Int, indexMs: Double, sizeMB: Double, queryUs: Double)

  def deltaSweep(g: Graph, deltas: Seq[Int]): Seq[DeltaRow] = {
    val queries = QueryEngine.randomQueries(g, QueryCount / 2, seed = 13)
    deltas.map { delta =>
      val (order, oMs) = timeMs(VertexOrder.hybridOrder(g, delta))
      val ((idx, _), ms) = timeMs(Pspc.build(g, order, MaxThreads, numLandmarks = DefaultLandmarks))
      DeltaRow(delta, oMs + ms, idx.sizeMB, measureQueries(idx, queries, 1))
    }
  }

  /** Exp 7: landmark-count sweep (index time only, as in the paper). */
  final case class LandmarkRow(k: Int, indexMs: Double)

  def landmarkSweep(spec: DatasetSpec, ks: Seq[Int], scale: Double = 1.0): Seq[LandmarkRow] = {
    val g = GraphGen.analogue(spec, scale)
    val order = VertexOrder.degreeOrder(g)
    ks.map(k => LandmarkRow(k, buildMs(g, order, numLandmarks = k)))
  }

  /** Exp 8: Order / LL / LC / materialise breakdown at MaxThreads.
    * `materialiseMs` is the build's wall clock minus LL and LC, so the four
    * phases sum to ordering plus the build's wall clock.
    */
  final case class BreakdownRow(key: String, orderMs: Double, llMs: Double, lcMs: Double, materialiseMs: Double)

  def breakdown(spec: DatasetSpec, scale: Double = 1.0): BreakdownRow = {
    val g = GraphGen.analogue(spec, scale)
    val (order, oMs) = timeMs(VertexOrder.degreeOrder(g))
    val ((_, stats), ms) = timeMs(Pspc.build(g, order, MaxThreads, numLandmarks = DefaultLandmarks))
    BreakdownRow(spec.key, oMs, stats.llMs, stats.lcMs, ms - stats.llMs - stats.lcMs)
  }

  /** The road-network stand-in used by Exp 5(c) and Exp 6. */
  def roadGraph(side: Int = 60): Graph = GraphGen.roadGrid(side, side, drop = 0.12, seed = 42)

  /** JIT warm-up: one small end-to-end build so the first measured dataset
    * isn't penalized by compilation.
    */
  def warmup(): Unit = {
    val g = GraphGen.chungLu(500, 8.0, 2.5, seed = 1)
    val order = VertexOrder.degreeOrder(g)
    HpSpc.build(g, order)
    Pspc.build(g, order, threads = 2, numLandmarks = 10)
    Pspc.build(g, order, threads = MaxThreads)
    ()
  }

  /** Markdown table helper. */
  def mdTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb.append("| ").append(header.mkString(" | ")).append(" |\n")
    sb.append("|").append(header.map(_ => "---").mkString("|")).append("|\n")
    rows.foreach(r => sb.append("| ").append(r.mkString(" | ")).append(" |\n"))
    sb.toString
  }

  def f1(x: Double): String = f"$x%.1f"
  def f2(x: Double): String = f"$x%.2f"
}
