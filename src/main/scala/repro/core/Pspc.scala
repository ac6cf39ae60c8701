package repro.core

import repro.graph.Graph
import repro.order.VertexOrder

/** PSPC — the paper's parallel shortest-path-counting index construction.
  *
  * Labels are built in distance rounds instead of vertex-rank order: round
  * `d` derives every distance-`d` entry from the frozen snapshot
  * `L_{<=d-1}` via neighbor label propagation (Definition 8), so all
  * vertices inside a round are independent — no cross-thread dependency,
  * unlike the HP-SPC baseline. A round pulls only its frontier, the
  * neighbours of the vertices that gained entries in the round before: no
  * other vertex has a candidate (DESIGN.md §2).
  *
  * Per-candidate pruning for `(w, u, d)` pulled from `Σ_{v∈N(u)} L_{d-1}(v)`:
  *  1. rank rule (Lemma 3): drop unless `rank(w)` is strictly higher than
  *     `rank(u)`. Every block is sorted by hub rank, so the rule ends a
  *     block's scan at its first hub not ranked above `u` (DESIGN.md §2);
  *  2. Label Elimination: drop if `w` is already a hub of `u` (then
  *     `dis(w,u) < d`);
  *  3. landmark filter (§III-H), an O(1) short-circuit of rule 4 when the
  *     candidate hub is a landmark (with 100 landmarks, 7 % of the
  *     candidates of `pspcbench`'s `social` build and 41 % of `road`'s);
  *  4. query rule (Lemma 4): drop if some common hub `x` of `u` and `w` has
  *     `dis(u,x) + dis(x,w) < d`. It scans only `w`'s entries at distances
  *     1..d-2, the only ones that can satisfy it (DESIGN.md §2).
  * Duplicate candidates merge by summing counts (Label Merging); the
  * surviving merged count is exactly the trough-path count. A survivor's
  * count beyond a `Long` fails the build and names the vertex and the hub
  * ([[Counts]]).
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
    * of the build's wall clock is materialisation (merging each vertex's
    * rank-sorted blocks into its final arrays on the build's pool,
    * `Kernel.index`), the order check and closing the pool.
    */
  final case class BuildStats(llMs: Double, lcMs: Double, rounds: Int)

  /** Per-worker scratch for [[Kernel]], indexed by hub rank: a dense
    * rank->dist table of L(u) and candidate accumulators, both reset via
    * touch lists, a bitmap that orders the survivors, and the survivors of
    * the last vertex the kernel processed.
    */
  final class Scratch(n: Int) {
    val tmpDist: Array[Int] = Array.fill(n)(-1)
    val candCnt: Array[Long] = new Array[Long](n)
    val candList: IntBuf = new IntBuf(64)
    /** One bit per hub rank, all clear between pulls. */
    val rankBits: Array[Long] = new Array[Long]((n + 63) >>> 6)
    /** The survivors' hub ranks, strictly ascending, and their counts. */
    val outHubs: IntBuf = new IntBuf(8)
    val outCnts: LongBuf = new LongBuf(8)
  }

  /** Where a round's pull phase hands over vertex `u`'s survivors
    * `(hub ranks, cnts)`, as `pull` leaves them: strictly ascending in hub
    * rank. They become `u`'s entries once the round's last pull is done.
    * `u` must be in the round's [[Frontier]]; empty survivors stage
    * nothing.
    */
  type Stage = (Int, Array[Int], Array[Long]) => Unit

  /** The vertices one round pulls, `apply(0 until size)`, in no particular
    * order. `cost(i)` is the plan cost of `apply(i)`: the number of
    * last-round entries in its neighbourhood, which its pull reads.
    */
  final class Frontier private[Pspc] (n: Int) {
    private[Pspc] val vertices: Array[Int] = new Array[Int](n)
    private[Pspc] val costs: Array[Long] = new Array[Long](n)
    private[Pspc] var count: Int = 0

    def size: Int = count
    def apply(i: Int): Int = vertices(i)
    def cost(i: Int): Long = costs(i)
    def toArray: Array[Int] = java.util.Arrays.copyOf(vertices, count)
  }

  /** One round's pull phase: `(d, frontier, stage)` pulls every vertex of
    * `frontier` against the frozen `L_{<=d-1}` and stages the survivors.
    */
  type PullRound = (Int, Frontier, Stage) => Unit

  /** The label lists of one build, starting at L_0 (every vertex its own
    * hub), and the round kernel over them. Within a round only `pull`
    * runs; it reads the lists and writes nothing but the caller's
    * [[Scratch]]. The lists change only in `rounds`, after every pull of
    * a round is done, so a copy of the kernel (the Spark build broadcasts
    * one per round) is the frozen snapshot `L_{<=d-1}`.
    *
    * Vertex `v`'s entries are `hubs(v)`, `dists(v)` and `cnts(v)` at
    * indices `[0, len(v))`. `hubs` holds hub *ranks*, not vertex ids: the
    * scratch tables are indexed by them, and every round's block is sorted
    * by them, so the rank rule is a loop bound in `pull` (DESIGN.md §2).
    * The arrays' capacity doubles when a round outgrows it, so a round
    * copies no list that has room; `index` merges each list's blocks into
    * exact-length arrays, still of hub ranks, the layout [[LabelIndex]]
    * stores, and serialisation writes only `[0, len(v))`.
    *
    * @param order     the build's total order, `order(rank) = vertex`
    * @param rank      its inverse
    * @param landmarks landmark filter, or `null` for none
    */
  final class Kernel private[Pspc] (g: Graph, order: Array[Int], rank: Array[Int], landmarks: Landmarks)
      extends Serializable {
    val n: Int = g.n
    @transient private var hubs: Array[Array[Int]] = Array.tabulate(n)(v => Array(rank(v)))
    @transient private var dists: Array[Array[Int]] = Array.fill(n)(Array(0))
    @transient private var cnts: Array[Array[Long]] = Array.fill(n)(Array(1L))
    /** Number of live entries of each list. */
    private val len: Array[Int] = Array.fill(n)(1)
    /** Round-(d-1) entries of v live at indices [prevStart(v), len(v)).
      * Each list is in ascending distance with `v` itself at index 0, so
      * [1, prevStart(v)) holds exactly its entries at distances 1..d-2: the
      * query rule in `pull` scans only that range and depends on this order.
      * `rounds` closes a block (`prevStart(v) = len(v)`) one round after it
      * was appended, so outside the last round's changed vertices the block
      * is empty.
      */
    private val prevStart: Array[Int] = new Array[Int](n)

    /** Number of `v`'s entries from the last finished round. */
    def lastRoundSize(v: Int): Int = len(v) - prevStart(v)

    /** Pull the distance-`d` candidates of `u` from its neighbours'
      * round-(d-1) entries (rank rule, Label Elimination, Label Merging),
      * prune them (landmark filter, query rule), and leave the survivors in
      * `s.outHubs` / `s.outCnts`, strictly ascending in hub rank.
      *
      * Each neighbour's block is sorted by hub rank, so the entries the
      * rank rule drops are its suffix from the first hub ranked at or
      * below `u`, and the scan stops there (DESIGN.md §2).
      *
      * @throws ArithmeticException if a survivor's count exceeds a `Long`
      */
    def pull(u: Int, d: Int, s: Scratch): Unit = {
      val ru = rank(u)
      val hu = hubs(u); val du = dists(u); val lu = len(u)
      var i = 0
      while (i < lu) { s.tmpDist(hu(i)) = du(i); i += 1 }
      s.candList.clear(); s.outHubs.clear(); s.outCnts.clear()
      g.foreachNbr(u) { v =>
        val hv = hubs(v); val cv = cnts(v); val lv = len(v)
        val rv = rank(v); val wv = g.weight(v)
        var j = prevStart(v)
        while (j < lv && hv(j) < ru) {
          val w = hv(j)
          if (s.tmpDist(w) < 0) {
            val mult = if (w == rv) 1L else wv
            if (s.candCnt(w) == 0L) s.candList += w
            s.candCnt(w) = Counts.add(s.candCnt(w), Counts.mul(cv(j), mult))
          }
          j += 1
        }
      }
      // survivors go to outHubs unordered; their counts stay in candCnt
      var lo = Int.MaxValue; var hi = -1
      var k = 0
      while (k < s.candList.len) {
        val w = s.candList(k)
        // -1 undecided, 0 keep, 1 prune
        var verdict = if (landmarks != null) landmarks.decide(w, u, d) else -1
        if (verdict == -1) {
          // query rule: scan L(w) for a common hub x with
          // dis(u,x) + dis(x,w) < d. Only entries at distances 1..d-2,
          // [1, prevStart(w)), can: index 0 is w, which Label Elimination
          // kept out of L(u), and every other x outranks u, so dis(u,x) >= 1.
          val x = order(w)
          val hw = hubs(x); val dw = dists(x)
          val end = prevStart(x)
          var j = 1
          verdict = 0
          while (j < end && verdict == 0) {
            val t = s.tmpDist(hw(j))
            if (t >= 0 && t + dw(j) < d) verdict = 1
            j += 1
          }
        }
        if (verdict == 0) {
          if (s.candCnt(w) == Counts.Overflow) throw Counts.overflow(u, order(w))
          s.outHubs += w
          if (w < lo) lo = w
          if (w > hi) hi = w
        } else s.candCnt(w) = 0L
        k += 1
      }
      val m = s.outHubs.len
      if (m > 1) sortRanks(s, lo, hi)
      k = 0
      while (k < m) { val w = s.outHubs(k); s.outCnts += s.candCnt(w); s.candCnt(w) = 0L; k += 1 }
      i = 0
      while (i < lu) { s.tmpDist(hu(i)) = -1; i += 1 }
    }

    /** Sort the distinct ranks `s.outHubs`, all in `[lo, hi]`, ascending,
      * without comparisons: set a bit per rank, then read the bits back in
      * order, one word per 64 ranks of `[lo, hi]`.
      */
    private def sortRanks(s: Scratch, lo: Int, hi: Int): Unit = {
      val out = s.outHubs.a; val m = s.outHubs.len
      val bits = s.rankBits
      var k = 0
      while (k < m) { val w = out(k); bits(w >>> 6) |= 1L << w; k += 1 }
      k = 0
      var word = lo >>> 6
      val last = hi >>> 6
      while (word <= last) {
        var b = bits(word)
        if (b != 0L) {
          bits(word) = 0L
          while (b != 0L) {
            out(k) = (word << 6) | java.lang.Long.numberOfTrailingZeros(b); k += 1
            b &= b - 1
          }
        }
        word += 1
      }
    }

    /** Append `u`'s round-`d` survivors and make them its round-`d` block.
      * The arrays double when they run out of room. Appending round by
      * round keeps each list in ascending distance with `u` at index 0,
      * which `prevStart` and the query rule in `pull` depend on; `nh` is
      * sorted by hub rank, which the rank rule's bound in `pull` and the
      * merge in `index` depend on.
      */
    private def append(u: Int, d: Int, nh: Array[Int], nc: Array[Long]): Unit = {
      val old = len(u)
      val need = old + nh.length
      if (need > hubs(u).length) {
        val cap = math.max(need, 2 * hubs(u).length)
        hubs(u) = java.util.Arrays.copyOf(hubs(u), cap)
        dists(u) = java.util.Arrays.copyOf(dists(u), cap)
        cnts(u) = java.util.Arrays.copyOf(cnts(u), cap)
      }
      System.arraycopy(nh, 0, hubs(u), old, nh.length)
      java.util.Arrays.fill(dists(u), old, need, d)
      System.arraycopy(nc, 0, cnts(u), old, nh.length)
      prevStart(u) = old
      len(u) = need
    }

    /** The round protocol (paper §III). Round `d = 1, 2, …`:
      *  1. one pass over the neighbours of the vertices that gained entries
      *     in round `d-1` (every vertex before round 1) builds the frontier
      *     and sums each frontier vertex's cost;
      *  2. `pullRound(d, frontier, stage)` pulls the frontier against the
      *     frozen `L_{<=d-1}` and stages the survivors;
      *  3. the round-(d-1) blocks are closed, and the staged vertices, the
      *     round's changed vertices, get their survivors appended on
      *     `workers`.
      * Rounds stop at the first one that changes no vertex.
      *
      * @return the number of rounds that added entries
      */
    private[Pspc] def rounds(workers: Workers)(pullRound: PullRound): Int = {
      val newHubs = new Array[Array[Int]](n)
      val newCnts = new Array[Array[Long]](n)
      val stage: Stage = (u, h, c) => if (h.length > 0) { newHubs(u) = h; newCnts(u) = c }
      val frontier = new Frontier(n)
      // position of a vertex in the frontier being built, -1 outside it
      val pos = Array.fill(n)(-1)
      // the vertices that gained entries in the last round
      val changed = Array.range(0, n)
      var nChanged = n

      def buildFrontier(): Unit = {
        val fv = frontier.vertices; val fc = frontier.costs
        var f = 0
        var i = 0
        while (i < nChanged) {
          val v = changed(i)
          val size = lastRoundSize(v)
          g.foreachNbr(v) { u =>
            var p = pos(u)
            if (p < 0) { p = f; pos(u) = p; fv(p) = u; fc(p) = 0L; f += 1 }
            fc(p) += size
          }
          i += 1
        }
        frontier.count = f
        i = 0
        while (i < f) { pos(fv(i)) = -1; i += 1 }
      }

      def round(d: Int): Int = {
        buildFrontier()
        val f = frontier.count
        if (f == 0) return 0
        pullRound(d, frontier, stage)
        var i = 0
        while (i < nChanged) { val v = changed(i); prevStart(v) = len(v); i += 1 }
        nChanged = 0
        i = 0
        while (i < f) {
          val u = frontier.vertices(i)
          if (newHubs(u) != null) { changed(nChanged) = u; nChanged += 1 }
          i += 1
        }
        workers.dynamic(nChanged, math.max(16, nChanged / (workers.count * 16))) { (_, from, until) =>
          var k = from
          while (k < until) {
            val u = changed(k)
            append(u, d, newHubs(u), newCnts(u))
            newHubs(u) = null; newCnts(u) = null
            k += 1
          }
        }
        nChanged
      }
      var d = 1
      while (round(d) > 0) d += 1
      d - 1
    }

    /** The finished labels: on `workers`, each list's rank-sorted blocks
      * are merged into one exact-length, rank-sorted list of hub ranks. A
      * list without spare capacity is rewritten in place. The
      * [[LabelIndex]] constructor checks the merged lists.
      *
      * @throws IllegalArgumentException if a list holds a hub twice
      */
    private[Pspc] def index(workers: Workers): LabelIndex = {
      val scratches = Array.fill(workers.count)(new MergeScratch)
      workers.dynamic(n, 256) { (t, from, until) =>
        val s = scratches(t)
        var v = from
        while (v < until) { materialise(v, s); v += 1 }
      }
      new LabelIndex(order, hubs, dists, cnts, g.weight)
    }

    /** Merge `v`'s blocks, the runs of equal distance, each sorted by hub
      * rank, pairwise until one run is left, on keys `rank << 32 | index`,
      * then write the list back in that order.
      */
    private def materialise(v: Int, s: MergeScratch): Unit = {
      val l = len(v)
      val h = hubs(v); val dv = dists(v); val cv = cnts(v)
      s.ensure(l)
      val runs = s.runs
      var nr = 0
      var i = 0
      while (i < l) {
        if (i == 0 || dv(i) != dv(i - 1)) { runs(nr) = i; nr += 1 }
        s.keys(i) = (h(i).toLong << 32) | i
        i += 1
      }
      runs(nr) = l
      var src = s.keys; var dst = s.merged
      while (nr > 1) {
        var r = 0; var m = 0
        while (r + 1 < nr) { merge(src, dst, runs(r), runs(r + 1), runs(r + 2)); runs(m) = runs(r); m += 1; r += 2 }
        if (r < nr) { System.arraycopy(src, runs(r), dst, runs(r), l - runs(r)); runs(m) = runs(r); m += 1 }
        runs(m) = l; nr = m
        val t = src; src = dst; dst = t
      }
      if (h.length == l) {
        System.arraycopy(dv, 0, s.dists, 0, l); System.arraycopy(cv, 0, s.cnts, 0, l)
        writeBack(src, l, s.dists, s.cnts, h, dv, cv)
      } else {
        hubs(v) = new Array[Int](l); dists(v) = new Array[Int](l); cnts(v) = new Array[Long](l)
        writeBack(src, l, dv, cv, hubs(v), dists(v), cnts(v))
      }
    }

    /** Merge the sorted runs `src[a, b)` and `src[b, e)` into `dst[a, e)`. */
    private def merge(src: Array[Long], dst: Array[Long], a: Int, b: Int, e: Int): Unit = {
      var x = a; var y = b; var o = a
      while (x < b && y < e) {
        if (src(x) < src(y)) { dst(o) = src(x); x += 1 } else { dst(o) = src(y); y += 1 }
        o += 1
      }
      if (x < b) System.arraycopy(src, x, dst, o, b - x)
      else System.arraycopy(src, y, dst, o, e - y)
    }

    /** Write the merged `keys` out as hub ranks, distances and counts,
      * reading the entries' distances and counts from `d` and `c`.
      */
    private def writeBack(keys: Array[Long], l: Int, d: Array[Int], c: Array[Long],
        outH: Array[Int], outD: Array[Int], outC: Array[Long]): Unit = {
      var i = 0
      while (i < l) {
        val p = keys(i).toInt
        outH(i) = (keys(i) >>> 32).toInt; outD(i) = d(p); outC(i) = c(p)
        i += 1
      }
    }

    /** The lists' live prefixes, flattened: the spare capacity of a list is
      * never written.
      */
    private def writeObject(out: java.io.ObjectOutputStream): Unit = {
      out.defaultWriteObject()
      val total = len.iterator.map(_.toLong).sum
      require(total <= Int.MaxValue, s"a kernel of $total entries does not fit one array")
      val fh = new Array[Int](total.toInt); val fd = new Array[Int](total.toInt)
      val fc = new Array[Long](total.toInt)
      var at = 0
      var v = 0
      while (v < n) {
        System.arraycopy(hubs(v), 0, fh, at, len(v))
        System.arraycopy(dists(v), 0, fd, at, len(v))
        System.arraycopy(cnts(v), 0, fc, at, len(v))
        at += len(v); v += 1
      }
      out.writeObject(fh); out.writeObject(fd); out.writeObject(fc)
    }

    private def readObject(in: java.io.ObjectInputStream): Unit = {
      in.defaultReadObject()
      val fh = in.readObject().asInstanceOf[Array[Int]]
      val fd = in.readObject().asInstanceOf[Array[Int]]
      val fc = in.readObject().asInstanceOf[Array[Long]]
      hubs = new Array[Array[Int]](n); dists = new Array[Array[Int]](n); cnts = new Array[Array[Long]](n)
      var at = 0
      var v = 0
      while (v < n) {
        val end = at + len(v)
        hubs(v) = java.util.Arrays.copyOfRange(fh, at, end)
        dists(v) = java.util.Arrays.copyOfRange(fd, at, end)
        cnts(v) = java.util.Arrays.copyOfRange(fc, at, end)
        at = end; v += 1
      }
    }
  }

  /** Per-worker buffers of `Kernel.index`, grown to the longest list seen:
    * merge keys, run starts, and copies of the list being rewritten.
    */
  private final class MergeScratch {
    var keys = new Array[Long](16)
    var merged = new Array[Long](16)
    var runs = new Array[Int](17)
    var dists = new Array[Int](16)
    var cnts = new Array[Long](16)

    def ensure(len: Int): Unit = if (keys.length < len) {
      keys = new Array[Long](len); merged = new Array[Long](len); runs = new Array[Int](len + 1)
      dists = new Array[Int](len); cnts = new Array[Long](len)
    }
  }

  /** The PSPC build pipeline every builder shares. It checks `order`, opens
    * one [[Workers]] pool of `threads` that runs every phase and closes it
    * in `finally`, builds the landmark filter (the LL clock), runs the
    * round protocol of [[Kernel]] (the LC clock) and merges the labels into
    * a [[LabelIndex]]. A builder passes only its pull phase: `pullPhase`
    * gets the pool and the kernel once and returns the function that runs
    * round `d`'s pulls over its frontier and stages their survivors.
    */
  private[repro] def pipeline(g: Graph, order: Array[Int], threads: Int, numLandmarks: Int)(
      pullPhase: (Workers, Kernel) => PullRound): (LabelIndex, BuildStats) = {
    val rank = VertexOrder.rankOf(order, g.n)
    val workers = new Workers(threads)
    try {
      val llStart = System.nanoTime()
      val landmarks = if (numLandmarks > 0) new Landmarks(g, math.min(numLandmarks, g.n), rank, workers) else null
      val llMs = (System.nanoTime() - llStart) / 1e6

      val lcStart = System.nanoTime()
      val kernel = new Kernel(g, order, rank, landmarks)
      val rounds = kernel.rounds(workers)(pullPhase(workers, kernel))
      val lcMs = (System.nanoTime() - lcStart) / 1e6

      (kernel.index(workers), BuildStats(llMs, lcMs, rounds))
    } finally workers.close()
  }

  /** The threaded pull phase of `build`: each round pulls the frontier on
    * the pool. The static schedule splits the frontier, in rank order, into
    * one equal chunk per worker. The dynamic schedule on more than one
    * worker sorts the frontier by cost, largest first, and workers grab
    * small chunks of it; on one worker it pulls the frontier in vertex-id
    * order, which on road-like graphs keeps consecutive pulls on nearby
    * label arrays (DESIGN.md §3).
    */
  private[repro] def threadedPulls(g: Graph, order: Array[Int], schedule: Schedule)(
      workers: Workers, kernel: Kernel): PullRound = {
    val n = g.n
    val scratches = Array.fill(workers.count)(new Scratch(n))
    val plan = schedule == DynamicSchedule && workers.count > 1
    val rank = if (schedule == StaticSchedule) VertexOrder.rankOf(order, n) else null
    val taskOrder = new Array[Int](n)
    val planKeys = if (plan) new Array[Long](n) else null

    (d, frontier, stage) => {
      val f = frontier.size
      var k = 0
      if (plan) {
        // the key (Int.MaxValue - cost) << 32 | u sorts cost descending, ties by id
        while (k < f) {
          planKeys(k) = ((Int.MaxValue - math.min(frontier.cost(k), Int.MaxValue)) << 32) | frontier(k)
          k += 1
        }
        java.util.Arrays.sort(planKeys, 0, f)
        k = 0
        while (k < f) { taskOrder(k) = planKeys(k).toInt; k += 1 }
      } else if (rank != null) {
        while (k < f) { taskOrder(k) = rank(frontier(k)); k += 1 }
        java.util.Arrays.sort(taskOrder, 0, f)
        k = 0
        while (k < f) { taskOrder(k) = order(taskOrder(k)); k += 1 }
      } else {
        while (k < f) { taskOrder(k) = frontier(k); k += 1 }
        java.util.Arrays.sort(taskOrder, 0, f)
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
      schedule match {
        case StaticSchedule  => workers.static(f)(pulls)
        case DynamicSchedule => workers.dynamic(f, math.max(16, f / (workers.count * 16)))(pulls)
      }
    }
  }

  /** Build the PSPC index. Every round pulls: each frontier vertex reads
    * its neighbours' round-(d-1) entries from the frozen snapshot and
    * writes only its own new entries. The paper's push propagation is not
    * implemented (DESIGN.md §1 gives the measurements).
    *
    * @param g            input graph (weights honoured for reduced graphs)
    * @param order        total order, `order(rank) = vertex`; must be a
    *                     permutation of `0 until g.n`
    * @param threads      worker threads (1 = the paper's "PSPC", >1 = "PSPC⁺")
    * @param schedule     static node-order chunks or cost-based dynamic
    * @param numLandmarks 0 disables landmark filtering
    * @throws ArithmeticException if a label's path count exceeds a `Long`
    */
  def build(
      g: Graph,
      order: Array[Int],
      threads: Int = 1,
      schedule: Schedule = DynamicSchedule,
      numLandmarks: Int = 0,
  ): (LabelIndex, BuildStats) =
    pipeline(g, order, threads, numLandmarks)(threadedPulls(g, order, schedule))
}
