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
  *     candidate hub is a landmark (the dominant case under degree orders);
  *  4. query rule (Lemma 4): drop if some common hub `x` of `u` and `w` has
  *     `dis(u,x) + dis(x,w) < d`.
  * Duplicate candidates merge by summing counts (Label Merging); the
  * surviving merged count is exactly the trough-path count.
  *
  * One class, [[Pspc.Kernel]], holds these rules; the threaded `build` here
  * and the Spark build (`repro.spark.SparkPspc`) both run their rounds
  * through it.
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

  /** The label arrays of one build, starting at L_0 (every vertex its own
    * hub), and the round kernel over them. Every builder runs its rounds
    * through this class: the threaded loop in `build` below, and
    * `repro.spark.SparkPspc`, which broadcasts it as the frozen snapshot.
    * Within a round only `pull` runs, and it reads the arrays and writes
    * nothing but the caller's [[Scratch]]; `append` is the one mutation
    * and runs after every vertex of the round is done.
    *
    * @param landmarks landmark filter, or `null` for none
    */
  final class Kernel(g: Graph, rank: Array[Int], landmarks: Landmarks) extends Serializable {
    val n: Int = g.n
    val hubs: Array[Array[Int]] = Array.tabulate(n)(v => Array(v))
    val dists: Array[Array[Int]] = Array.fill(n)(Array(0))
    val cnts: Array[Array[Long]] = Array.fill(n)(Array(1L))
    /** Round-(d-1) entries of v live at indices [prevStart(v), hubs(v).length). */
    val prevStart: Array[Int] = new Array[Int](n)

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
          // query rule: scan L(w) for a common hub beating distance d
          val hw = hubs(w); val dw = dists(w)
          var j = 0
          verdict = 0
          while (j < hw.length && verdict == 0) {
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

    /** Append `u`'s round-`d` survivors (`null` for none) and make them its
      * round-`d` entries. Call it for every vertex once the round is done.
      */
    def append(u: Int, d: Int, nh: Array[Int], nc: Array[Long]): Unit =
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
      } else prevStart(u) = hubs(u).length
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
  ): (LabelIndex, BuildStats) = {
    val n = g.n
    val rank = VertexOrder.rankOf(order, n)
    // one pool for the landmark BFSs, the rounds and the final sort
    val workers = new Workers(threads)
    try {
      val llStart = System.nanoTime()
      val landmarks = if (numLandmarks > 0) new Landmarks(g, math.min(numLandmarks, n), workers) else null
      val llMs = (System.nanoTime() - llStart) / 1e6

      val lcStart = System.nanoTime()
      val kernel = new Kernel(g, rank, landmarks)
      val scratches = Array.fill(workers.count)(new Scratch(n))
      // new entries found by each worker this round
      val found = new Array[Long](workers.count)
      val newHubs = new Array[Array[Int]](n)
      val newCnts = new Array[Array[Long]](n)
      // task order for this round; cost-sorted when dynamic
      val taskOrder = new Array[Int](n)
      val planKeys = new Array[Long](n)

      /** Run `task(threadId, from, until)` over `[0, total)` according to the
        * schedule: static = contiguous equal chunks, dynamic = atomic grab of
        * small chunks (tasks pre-sorted by cost by the caller).
        */
      def parallelFor(total: Int)(task: (Int, Int, Int) => Unit): Unit = schedule match {
        case StaticSchedule  => workers.static(total)(task)
        case DynamicSchedule => workers.dynamic(total, math.max(16, total / (workers.count * 16)))(task)
      }

      var d = 1
      var totalNew = 1L
      var rounds = 0
      while (totalNew > 0) {
        // --- plan the schedule -------------------------------------------
        if (schedule == DynamicSchedule && threads > 1) {
          // cost = round-(d-1) entries in the neighbourhood; the key
          // (Int.MaxValue - cost) << 32 | u sorts cost descending, ties by id
          workers.static(n) { (_, from, until) =>
            var u = from
            while (u < until) {
              var c = 0L
              g.foreachNbr(u)(v => c += kernel.hubs(v).length - kernel.prevStart(v))
              planKeys(u) = ((Int.MaxValue - math.min(c, Int.MaxValue)) << 32) | u
              u += 1
            }
          }
          java.util.Arrays.sort(planKeys)
          var k = 0
          while (k < n) { taskOrder(k) = planKeys(k).toInt; k += 1 }
        } else {
          // node-order-based static schedule: tasks laid out by rank
          System.arraycopy(order, 0, taskOrder, 0, n)
        }

        // --- phase A: compute candidates + prune (parallel, read-only) ----
        java.util.Arrays.fill(found, 0L)
        parallelFor(n) { (tid, from, until) =>
          val s = scratches(tid)
          var c = 0L
          var k = from
          while (k < until) {
            val u = taskOrder(k)
            kernel.pull(u, d, s)
            if (s.outHubs.len > 0) {
              newHubs(u) = s.outHubs.toArray; newCnts(u) = s.outCnts.toArray
              c += s.outHubs.len
            }
            k += 1
          }
          found(tid) += c
        }
        totalNew = found.sum

        // --- phase B: append (parallel, each vertex owned by one thread) --
        parallelFor(n) { (_, from, until) =>
          var k = from
          while (k < until) {
            val u = taskOrder(k)
            kernel.append(u, d, newHubs(u), newCnts(u))
            newHubs(u) = null; newCnts(u) = null
            k += 1
          }
        }
        if (totalNew > 0) rounds += 1
        d += 1
      }
      val lcMs = (System.nanoTime() - lcStart) / 1e6

      val idx = LabelIndex.fromArrays(order, kernel.hubs, kernel.dists, kernel.cnts, g.weight, workers)
      (idx, BuildStats(llMs, lcMs, rounds))
    } finally workers.close()
  }
}
