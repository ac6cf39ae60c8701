package pspcbench

import java.lang.management.ManagementFactory
import repro.core.{HpSpc, LabelIndex, Pspc, QueryEngine}
import repro.graph.Graph
import repro.order.VertexOrder
import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuffer

/** One benchmark input: a generated edge list, the vertex order the build
  * uses, and a small fixed input of the same kind for the JIT warm-up.
  */
final case class Workload(
    name: String,
    input: Long => EdgeList,
    warmInput: EdgeList,
    orderName: String,
    order: Graph => Array[Int],
)

object Workloads {
  // Sizes are chosen so that one run fits several builds at every thread
  // count; README.md gives the reasons for each workload.
  val all: Seq[Workload] = Seq(
    Workload("social", s => Inputs.chungLu(3000, 50.3, 2.5, s),
      Inputs.chungLu(600, 50.3, 2.5, 7), "degree", VertexOrder.degreeOrder),
    Workload("road", s => Inputs.roadGrid(100, 100, 0.12, s),
      Inputs.roadGrid(30, 30, 0.12, 7), "hybrid(delta=4)", VertexOrder.hybridOrder(_, 4)),
  )
}

/** One timed build: CSR graph to queryable `LabelIndex`. */
final case class BuildSample(
    wallNs: Long,
    orderNs: Long,
    pspcNs: Long,
    stats: Pspc.BuildStats,
    cpuNs: Long,
    allocBytes: Long,
)

/** `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]`
  *
  * Prints the workload, the machine and every metric by name and unit, and
  * as its last line one JSON object with `correct`, `attempted`, `failed`
  * and `metrics`: the end-to-end metrics untraced, the per-layer ones traced.
  */
object Main {
  val NumLandmarks = 100
  val NumQueryPairs = 100000
  val NumCheckSources = 8
  val SetupReps = 5
  val MinRounds = 3
  val LatencyChunk = 50000
  val BatchesPerRound = 3

  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = Workloads.all.find(wl => opt.get("workload").contains(wl.name)).getOrElse {
      System.err.println(s"unknown --workload; expected one of ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val run = new Run(w, opt("seed").toLong, opt("seconds").toDouble, opt("trace") == "1")
    val result = run.measure()
    opt.get("trace-out").filter(_ => run.tr.enabled).foreach { path =>
      java.nio.file.Files.writeString(java.nio.file.Path.of(path), run.tr.toJson)
      println(s"trace: ${run.tr.spans.length} spans written to $path")
    }
    println(result)
  }

  def median(xs: collection.Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  private val osBean =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val threadBean =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  def processCpuNs: Long = osBean.getProcessCpuTime
  def threadAllocBytes: Long = threadBean.getCurrentThreadAllocatedBytes
}

final class Run(w: Workload, seed: Long, seconds: Double, trace: Boolean) {
  import Main._

  val tr = new Tracer(trace)
  private val untraced = new Tracer(false)
  private val threads = Runtime.getRuntime.availableProcessors
  private val tally = new Tally
  private val metrics = ArrayBuffer.empty[(String, Double, String)]
  private var graph: Graph = null

  private def report(name: String, value: Double, unit: String, note: String = ""): Unit = {
    metrics += ((name, value, unit))
    println(f"  $name%-30s ${value.toString}%-22s $unit $note")
  }

  def measure(): String = {
    val input = w.input(seed)
    val pairs = Inputs.queryPairs(input.n, NumQueryPairs, seed * 7919 + 1)
    val sources = Inputs.queryPairs(input.n, NumCheckSources, seed * 7919 + 2).map(_._1)
    println(f"workload ${w.name} seed $seed: n=${input.n} m=${input.m} d_avg=${input.avgDeg}%.2f " +
      s"order=${w.orderName} landmarks=$NumLandmarks query_pairs=$NumQueryPairs")
    printMachine()

    // Set-up: JIT warm-up, then the CSR graph of the workload. Repeated;
    // the median is reported.
    val setupS = (1 to SetupReps).map { _ =>
      val t0 = System.nanoTime()
      tr.span("warmup")(warmUp())
      graph = tr.span("graph.csr")(Graph.fromEdges(input.n, ArraySeq.unsafeWrapArray(input.edges)))
      (System.nanoTime() - t0) / 1e9
    }

    // Each round builds at nproc threads and at 1 thread, then times a chunk
    // of single queries and a few batches, so that every metric samples the
    // whole run. In the traced run an untraced nproc build and a 1-thread
    // batch join each round.
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    val nproc, oneT, nprocUntraced = ArrayBuffer.empty[BuildSample]
    val batchNs, batch1Ns = ArrayBuffer.empty[Double]
    var lat = new Array[Long](1 << 20)
    var k = 0
    var ref: LabelIndex = null
    var expected: Array[(Int, Long)] = null
    def keep(res: Option[(LabelIndex, BuildSample)], into: ArrayBuffer[BuildSample], what: String): Unit =
      res.foreach { case (idx, s) =>
        into += s
        if (ref == null) {
          ref = idx
          Checker.checkQueries(ref, graph, sources, tally)
          expected = pairs.map { case (s, t) => ref.query(s, t) }
        } else tally.check(Checker.sameLabels(ref, idx), s"$what labels differ from the first build")
      }
    def timedBatch(t: Int, into: ArrayBuffer[Double]): Unit =
      tally.attempt(s"$t-thread batch") {
        val t0 = System.nanoTime()
        val out = tr.span(s"queryengine.batch.${if (t == 1) "1t" else "nproc"}")(QueryEngine.batch(ref, pairs, t))
        into += (System.nanoTime() - t0).toDouble
        var i = 0
        while (i < pairs.length) {
          tally.check(out(i) == expected(i), s"batch answer ${out(i)} != single query ${expected(i)} for ${pairs(i)}")
          i += 1
        }
      }
    var sink = 0L // keeps the timed queries' answers live
    var round = 0
    while (System.nanoTime() < deadline || round < MinRounds) {
      // the untraced build goes first in every other round, so that which of
      // a pair runs first does not bias the overhead
      if (trace && round % 2 == 1) keep(build(threads, "build.nproc", untraced), nprocUntraced, s"$threads-thread build")
      keep(build(threads, "build.nproc", tr), nproc, s"$threads-thread build")
      if (trace && round % 2 == 0) keep(build(threads, "build.nproc", untraced), nprocUntraced, s"$threads-thread build")
      keep(build(1, "build.1t", tr), oneT, "1-thread build")
      if (ref != null) {
        // Closed loop: the next query is sent when the previous one returns.
        if (k + LatencyChunk > lat.length) lat = java.util.Arrays.copyOf(lat, 2 * lat.length)
        val end = k + LatencyChunk
        while (k < end) {
          val (s, t) = pairs(k % pairs.length)
          val t0 = System.nanoTime()
          val ans = ref.query(s, t)
          lat(k) = System.nanoTime() - t0
          sink += ans._2
          k += 1
        }
        for (_ <- 1 to BatchesPerRound) {
          timedBatch(threads, batchNs)
          if (trace) timedBatch(1, batch1Ns)
        }
      }
      round += 1
    }
    if (nproc.isEmpty || oneT.isEmpty || batchNs.isEmpty) return result()

    val entries = ref.entryCount
    val latSorted = java.util.Arrays.copyOf(lat, k)
    java.util.Arrays.sort(latSorted)
    def pct(p: Double): Double = latSorted(math.min(k - 1, (p / 100 * k).toInt)) / 1e3
    val med = (xs: collection.Seq[BuildSample], f: BuildSample => Double) => median(xs.map(f))
    println(s"rounds=${nproc.head.stats.rounds} entries=$entries threads=$threads (query count checksum $sink)")
    println(s"build samples (s): $threads threads ${nproc.map(s => f"${s.wallNs / 1e9}%.3f").mkString(" ")}; " +
      s"1 thread ${oneT.map(s => f"${s.wallNs / 1e9}%.3f").mkString(" ")}")
    println(s"batch samples (ms): ${batchNs.map(ns => f"${ns / 1e6}%.1f").mkString(" ")}")

    if (!trace) {
      println("end-to-end metrics (untraced):")
      report("setup_s", median(setupS), "s", s"(median of ${setupS.length})")
      report("build_s", med(nproc, _.wallNs / 1e9), "s", s"(median of ${nproc.length}, $threads threads)")
      report("build_1t_s", med(oneT, _.wallNs / 1e9), "s", s"(median of ${oneT.length})")
      val tail = Seq(99.999, 99.99, 99.9).find(p => k * (1 - p / 100) >= 10).getOrElse(99.0)
      report("query_p50_us", pct(50), "us", f"(of $k queries; p$tail = ${pct(tail)}%.3f us)")
      report("query_p99_us", pct(99), "us", s"(of $k queries)")
      report("query_qps", pairs.length / (median(batchNs) / 1e9), "1/s",
        s"(median of ${batchNs.length} batches of ${pairs.length}, $threads threads)")
      report("index_mb", entries * 16 / 1e6, "MB", s"($entries entries x 16 B)")
    } else {
      val hpS = tally.attempt("HP-SPC build") {
        val order = w.order(graph)
        val t0 = System.nanoTime()
        tr.span("hpspc.build")(HpSpc.build(graph, order))
        (System.nanoTime() - t0) / 1e9
      }
      val lcN = med(nproc, _.stats.lcMs)
      val lc1 = med(oneT, _.stats.lcMs)
      // Traced and untraced builds of one round ran back to back; pairing
      // them keeps slow drifts of the machine out of the overhead.
      val paired = nproc.zip(nprocUntraced)
      val overheadMs = median(paired.map { case (a, b) => (a.wallNs - b.wallNs) / 1e6 })
      val coverage = median(paired.map { case (a, b) => (a.orderNs + a.pspcNs).toDouble / b.wallNs })
      val mergeLen = pairs.iterator.map { case (s, t) => ref.hubs(s).length + ref.hubs(t).length }.sum.toDouble / pairs.length
      val meanLatNs = lat.iterator.take(k).sum.toDouble / k
      println(s"per-layer metrics (traced; nproc builds: ${nproc.length} traced, ${nprocUntraced.length} untraced):")
      report("graph.csr_ms", median(tr.ms("graph.csr")), "ms")
      report("order.ms", med(nproc, _.orderNs / 1e6), "ms")
      report("landmarks.ms", med(nproc, _.stats.llMs), "ms")
      report("pspc.build_ms", med(nproc, _.pspcNs / 1e6), "ms")
      report("pspc.lc_ms", lcN, "ms")
      report("pspc.lc_1t_ms", lc1, "ms")
      report("pspc.materialise_ms", med(nproc, s => s.pspcNs / 1e6 - s.stats.llMs - s.stats.lcMs), "ms")
      report("pspc.rounds", nproc.head.stats.rounds.toDouble, "count")
      report("pspc.lc_speedup", lc1 / lcN, "x")
      report("pspc.cpu_util", med(nproc, s => s.cpuNs.toDouble / (s.wallNs.toDouble * threads)), "ratio")
      report("pspc.alloc_1t_mb", med(oneT, _.allocBytes / 1e6), "MB")
      report("labelindex.avg_label_len", entries.toDouble / graph.n, "count")
      report("labelindex.merge_len", mergeLen, "count")
      report("labelindex.ns_per_merge_step", meanLatNs / mergeLen, "ns")
      report("queryengine.batch_speedup", median(batch1Ns) / median(batchNs), "x")
      hpS.foreach(report("hpspc.build_s", _, "s", "(1 sample)"))
      report("trace.build_overhead_ms", overheadMs, "ms", s"(median of ${paired.length} traced - untraced pairs)")
      report("trace.coverage", coverage, "ratio", "(order.ms + pspc.build_ms) / untraced build_s, paired")
    }
    result()
  }

  /** Order + `Pspc.build` with `t` threads, pull, dynamic schedule. */
  private def build(t: Int, name: String, tracer: Tracer): Option[(LabelIndex, BuildSample)] =
    tally.attempt(s"$t-thread build") {
      tracer.span(name) {
        val cpu0 = processCpuNs
        val alloc0 = threadAllocBytes
        val t0 = System.nanoTime()
        val order = tracer.span("order")(w.order(graph))
        val t1 = System.nanoTime()
        val (idx, stats) = tracer.span("pspc.build")(Pspc.build(graph, order, t, numLandmarks = NumLandmarks))
        val t2 = System.nanoTime()
        val s = BuildSample(t2 - t0, t1 - t0, t2 - t1, stats, processCpuNs - cpu0, threadAllocBytes - alloc0)
        val ll = (stats.llMs * 1e6).toLong
        val lc = (stats.lcMs * 1e6).toLong
        tracer.child("pspc.build", "pspc.ll", t1, ll)
        tracer.child("pspc.build", "pspc.lc", t1 + ll, lc)
        tracer.child("pspc.build", "pspc.materialise", t1 + ll + lc, t2 - t1 - ll - lc)
        (idx, s)
      }
    }

  /** Run every timed call once on the workload's small warm-up input. */
  private def warmUp(): Unit = {
    val wg = Graph.fromEdges(w.warmInput.n, ArraySeq.unsafeWrapArray(w.warmInput.edges))
    val order = w.order(wg)
    val (idx, _) = Pspc.build(wg, order, threads, numLandmarks = NumLandmarks)
    Pspc.build(wg, order, 1, numLandmarks = NumLandmarks)
    val qs = Inputs.queryPairs(wg.n, 20000, 7)
    QueryEngine.batch(idx, qs, threads)
    qs.foreach { case (s, t) => idx.query(s, t) }
  }

  private def printMachine(): Unit = {
    val xmx = ManagementFactory.getRuntimeMXBean.getInputArguments.toArray.collect {
      case a: String if a.startsWith("-Xmx") => a.drop(4)
    }.headOption.getOrElse("default")
    println(s"""machine {"nproc":${Runtime.getRuntime.availableProcessors},"threads":$threads,""" +
      s""""jvm":"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",""" +
      s""""xmx":"$xmx","commit":"${System.getProperty("pspcbench.commit", "unknown")}",""" +
      s""""source_sha256":"${System.getProperty("pspcbench.source", "unknown")}"}""")
  }

  private def result(): String = {
    if (tally.failed > 0) {
      println(s"check failures (${tally.failed} of ${tally.attempted}):")
      tally.firstFailures.foreach(f => println(s"  $f"))
    }
    println(s"check_fail_frac = ${tally.failed.toDouble / math.max(1L, tally.attempted)} " +
      s"(${tally.failed} failed of ${tally.attempted} checks)")
    val ms = metrics.map { case (n, v, u) => s""""$n": {"value": $v, "unit": "$u"}""" }.mkString(", ")
    s"""{"correct": ${tally.failed == 0 && tally.attempted > 0}, "attempted": ${tally.attempted}, """ +
      s""""failed": ${tally.failed}, "metrics": {$ms}}"""
  }
}
