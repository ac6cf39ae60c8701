package repro.core

import repro.graph.Graph
import repro.order.VertexOrder

/** PSPC — the paper's parallel shortest-path-counting index construction.
  *
  * Labels are built in distance rounds instead of vertex-rank order: round
  * `d` derives every distance-`d` entry from the frozen snapshot
  * `L_{<=d-1}` via neighbor label propagation (Definition 8), so all
  * vertices inside a round are independent — no cross-thread dependency,
  * unlike the HP-SPC baseline.
  *
  * Per-candidate pruning for `(w, u, d)` pulled from `Σ_{v∈N(u)} L_{d-1}(v)`:
  *  1. rank rule (Lemma 3): drop unless `rank(w)` is strictly higher than
  *     `rank(u)`;
  *  2. Label Elimination: drop if `w` is already a hub of `u` (then
  *     `dis(w,u) < d`);
  *  3. landmark filter (§III-H), an O(1) short-circuit of rule 4 when the
  *     candidate hub is a landmark (with 100 landmarks, 7 % of the
  *     candidates of `pspcbench`'s `social` build and 41 % of `road`'s);
  *  4. query rule (Lemma 4): drop if some common hub `x` of `u` and `w` has
  *     `dis(u,x) + dis(x,w) < d`. It scans only `w`'s entries at distances
  *     1..d-2, the only ones that can satisfy it (DESIGN.md §2).
  * Duplicate candidates merge by summing counts (Label Merging); the
  * surviving merged count is exactly the trough-path count.
  *
  * One class, [[Pspc.Kernel]], holds these rules and the round protocol,
  * and one function, [[Pspc.pipeline]], runs every step of a build around
  * a round's pulls. The threaded `build` here and the Spark build
  * (`repro.spark.SparkPspc`) pass it only their pull phase.
  */
object Pspc {

  sealed trait Schedule
  case object StaticSchedule extends Schedule
  case object DynamicSchedule extends Schedule

  /** Phase timings (milliseconds) of one build: landmark labeling (LL) and
    * label construction (LC), plus the number of distance rounds. The rest
    * of the build's wall clock is the final `LabelIndex.fromArrays` sort on
    * the build's pool, the order check and closing the pool.
    */
  final case class BuildStats(llMs: Double, lcMs: Double, rounds: Int)

  /** Per-worker scratch for [[Kernel]]: a dense hub->dist table of L(u)
    * and candidate accumulators, both reset via touch lists, plus the
    * survivors of the last vertex the kernel processed.
    */
  final class Scratch(n: Int) {
    val tmpDist: Array[Int] = Array.fill(n)(-1)
    val candCnt: Array[Long] = new Array[Long](n)
    val candList: IntBuf = new IntBuf(64)
    val outHubs: IntBuf = new IntBuf(8)
    val outCnts: LongBuf = new LongBuf(8)
  }

  /** Where a round's pull phase hands over vertex `u`'s survivors
    * `(hubs, cnts)`. They become `u`'s entries once the round's last pull
    * is done.
    */
  type Stage = (Int, Array[Int], Array[Long]) => Unit

  /** The label arrays of one build, starting at L_0 (every vertex its own
    * hub), and the round kernel over them. Within a round only `pull`
    * runs; it reads the arrays and writes nothing but the caller's
    * [[Scratch]]. The arrays change only in `rounds`, after every pull of
    * a round is done, so a copy of the kernel (the Spark build broadcasts
    * one per round) is the frozen snapshot `L_{<=d-1}`.
    *
    * @param landmarks landmark filter, or `null` for none
    */
  final class Kernel private[Pspc] (g: Graph, rank: Array[Int], landmarks: Landmarks) extends Serializable {
    val n: Int = g.n
    private val hubs: Array[Array[Int]] = Array.tabulate(n)(v => Array(v))
    private val dists: Array[Array[Int]] = Array.fill(n)(Array(0))
    private val cnts: Array[Array[Long]] = Array.fill(n)(Array(1L))
    /** Round-(d-1) entries of v live at indices [prevStart(v), hubs(v).length).
      * Each list is in ascending distance with `v` itself at index 0, so
      * [1, prevStart(v)) holds exactly its entries at distances 1..d-2: the
      * query rule in `pull` scans only that range and depends on this order.
      */
    private val prevStart: Array[Int] = new Array[Int](n)

    /** Number of `v`'s entries from the last finished round. */
    def lastRoundSize(v: Int): Int = hubs(v).length - prevStart(v)

    /** Pull the distance-`d` candidates of `u` from its neighbours'
      * round-(d-1) entries (rank rule, Label Elimination, Label Merging),
      * prune them (landmark filter, query rule), and leave the survivors in
      * `s.outHubs` / `s.outCnts`.
      */
    def pull(u: Int, d: Int, s: Scratch): Unit = {
      val ru = rank(u)
      val hu = hubs(u); val du = dists(u)
      var i = 0
      while (i < hu.length) { s.tmpDist(hu(i)) = du(i); i += 1 }
      s.candList.clear(); s.outHubs.clear(); s.outCnts.clear()
      g.foreachNbr(u) { v =>
        val hv = hubs(v); val cv = cnts(v)
        var j = prevStart(v)
        while (j < hv.length) {
          val w = hv(j)
          if (rank(w) < ru && s.tmpDist(w) < 0) {
            val mult = if (w == v) 1L else g.weight(v)
            if (s.candCnt(w) == 0L) s.candList += w
            s.candCnt(w) += cv(j) * mult
          }
          j += 1
        }
      }
      var k = 0
      while (k < s.candList.len) {
        val w = s.candList(k)
        val c = s.candCnt(w)
        s.candCnt(w) = 0L
        // -1 undecided, 0 keep, 1 prune
        var verdict = if (landmarks != null) landmarks.decide(w, u, d) else -1
        if (verdict == -1) {
          // query rule: scan L(w) for a common hub x with
          // dis(u,x) + dis(x,w) < d. Only entries at distances 1..d-2,
          // [1, prevStart(w)), can: index 0 is w, which Label Elimination
          // kept out of L(u), and every other x outranks u, so dis(u,x) >= 1.
          val hw = hubs(w); val dw = dists(w)
          val end = prevStart(w)
          var j = 1
          verdict = 0
          while (j < end && verdict == 0) {
            val t = s.tmpDist(hw(j))
            if (t >= 0 && t + dw(j) < d) verdict = 1
            j += 1
          }
        }
        if (verdict == 0) { s.outHubs += w; s.outCnts += c }
        k += 1
      }
      i = 0
      while (i < hu.length) { s.tmpDist(hu(i)) = -1; i += 1 }
    }

    /** Append `u`'s round-`d` survivors (`null` for none), make them its
      * round-`d` entries and return how many there are. Appending round by
      * round keeps each list in ascending distance with `u` at index 0,
      * which `prevStart` and the query rule in `pull` depend on.
      */
    private def append(u: Int, d: Int, nh: Array[Int], nc: Array[Long]): Int =
      if (nh != null && nh.length > 0) {
        val oldLen = hubs(u).length
        val h2 = java.util.Arrays.copyOf(hubs(u), oldLen + nh.length)
        val d2 = java.util.Arrays.copyOf(dists(u), oldLen + nh.length)
        val c2 = java.util.Arrays.copyOf(cnts(u), oldLen + nh.length)
        System.arraycopy(nh, 0, h2, oldLen, nh.length)
        java.util.Arrays.fill(d2, oldLen, oldLen + nh.length, d)
        System.arraycopy(nc, 0, c2, oldLen, nh.length)
        hubs(u) = h2; dists(u) = d2; cnts(u) = c2
        prevStart(u) = oldLen
        nh.length
      } else { prevStart(u) = hubs(u).length; 0 }

    /** The round protocol (paper §III). Round `d = 1, 2, …` runs
      * `pullRound(d, stage)`, which pulls every vertex against the frozen
      * `L_{<=d-1}` and stages the survivors; then the survivors are appended
      * on `workers`. Rounds stop at the first one that adds nothing.
      *
      * @return the number of rounds that added entries
      */
    private[Pspc] def rounds(workers: Workers)(pullRound: (Int, Stage) => Unit): Int = {
      val newHubs = new Array[Array[Int]](n)
      val newCnts = new Array[Array[Long]](n)
      val stage: Stage = (u, h, c) => { newHubs(u) = h; newCnts(u) = c }
      // entries appended by each worker this round
      val added = new Array[Long](workers.count)
      val chunk = math.max(16, n / (workers.count * 16))
      def round(d: Int): Long = {
        pullRound(d, stage)
        java.util.Arrays.fill(added, 0L)
        workers.dynamic(n, chunk) { (t, from, until) =>
          var c = 0L
          var u = from
          while (u < until) {
            c += append(u, d, newHubs(u), newCnts(u))
            newHubs(u) = null; newCnts(u) = null
            u += 1
          }
          added(t) += c
        }
        added.sum
      }
      var d = 1
      while (round(d) > 0) d += 1
      d - 1
    }

    /** The finished labels, sorted by hub rank on `workers`. */
    private[Pspc] def index(order: Array[Int], workers: Workers): LabelIndex =
      LabelIndex.fromArrays(order, hubs, dists, cnts, g.weight, workers)
  }

  /** The PSPC build pipeline every builder shares. It checks `order`, opens
    * one [[Workers]] pool of `threads` that runs every phase and closes it
    * in `finally`, builds the landmark filter (the LL clock), runs the
    * round protocol of [[Kernel]] (the LC clock) and sorts the labels into
    * a [[LabelIndex]]. A builder passes only its pull phase: `pullPhase`
    * gets the pool and the kernel once and returns the function that runs
    * round `d`'s pulls and stages their survivors.
    */
  private[repro] def pipeline(g: Graph, order: Array[Int], threads: Int, numLandmarks: Int)(
      pullPhase: (Workers, Kernel) => (Int, Stage) => Unit): (LabelIndex, BuildStats) = {
    val rank = VertexOrder.rankOf(order, g.n)
    val workers = new Workers(threads)
    try {
      val llStart = System.nanoTime()
      val landmarks = if (numLandmarks > 0) new Landmarks(g, math.min(numLandmarks, g.n), workers) else null
      val llMs = (System.nanoTime() - llStart) / 1e6

      val lcStart = System.nanoTime()
      val kernel = new Kernel(g, rank, landmarks)
      val rounds = kernel.rounds(workers)(pullPhase(workers, kernel))
      val lcMs = (System.nanoTime() - lcStart) / 1e6

      (kernel.index(order, workers), BuildStats(llMs, lcMs, rounds))
    } finally workers.close()
  }

  /** Build the PSPC index. Every round pulls: each vertex reads its
    * neighbours' round-(d-1) entries from the frozen snapshot and writes
    * only its own new entries. The paper's push propagation is not
    * implemented (DESIGN.md §1 gives the measurements).
    *
    * @param g            input graph (weights honoured for reduced graphs)
    * @param order        total order, `order(rank) = vertex`; must be a
    *                     permutation of `0 until g.n`
    * @param threads      worker threads (1 = the paper's "PSPC", >1 = "PSPC⁺")
    * @param schedule     static node-order chunks or cost-based dynamic
    * @param numLandmarks 0 disables landmark filtering
    */
  def build(
      g: Graph,
      order: Array[Int],
      threads: Int = 1,
      schedule: Schedule = DynamicSchedule,
      numLandmarks: Int = 0,
  ): (LabelIndex, BuildStats) = pipeline(g, order, threads, numLandmarks) { (workers, kernel) =>
    val n = g.n
    val scratches = Array.fill(workers.count)(new Scratch(n))
    val plan = schedule == DynamicSchedule && workers.count > 1
    // task order of a round: by rank, or re-sorted by cost each round
    val taskOrder = if (plan) new Array[Int](n) else order
    val planKeys = if (plan) new Array[Long](n) else null

    (d, stage) => {
      if (plan) {
        // cost = round-(d-1) entries in the neighbourhood; the key
        // (Int.MaxValue - cost) << 32 | u sorts cost descending, ties by id
        workers.static(n) { (_, from, until) =>
          var u = from
          while (u < until) {
            var c = 0L
            g.foreachNbr(u)(v => c += kernel.lastRoundSize(v))
            planKeys(u) = ((Int.MaxValue - math.min(c, Int.MaxValue)) << 32) | u
            u += 1
          }
        }
        java.util.Arrays.sort(planKeys)
        var k = 0
        while (k < n) { taskOrder(k) = planKeys(k).toInt; k += 1 }
      }
      val pulls = (tid: Int, from: Int, until: Int) => {
        val s = scratches(tid)
        var k = from
        while (k < until) {
          val u = taskOrder(k)
          kernel.pull(u, d, s)
          if (s.outHubs.len > 0) stage(u, s.outHubs.toArray, s.outCnts.toArray)
          k += 1
        }
      }
      // static = contiguous equal chunks in rank order; dynamic = atomic
      // grab of small chunks of the cost-sorted tasks
      schedule match {
        case StaticSchedule  => workers.static(n)(pulls)
        case DynamicSchedule => workers.dynamic(n, math.max(16, n / (workers.count * 16)))(pulls)
      }
    }
  }
}
