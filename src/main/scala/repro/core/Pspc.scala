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
    * touch lists, and a bitmap that orders the survivors. It also stages
    * the survivors of the worker's pulls until the round's appends.
    */
  final class Scratch(n: Int) {
    val tmpDist: Array[Int] = Array.fill(n)(-1)
    val candCnt: Array[Long] = new Array[Long](n)
    val candList: IntBuf = new IntBuf(64)
    /** One bit per hub rank, all clear between pulls. */
    val rankBits: Array[Long] = new Array[Long]((n + 63) >>> 6)
    /** The staged blocks, one `(vertex, end)` pair each: block `i` is the
      * survivors of vertex `staged(2i)`, at `hubs`/`cnts` indices from the
      * end of block `i-1` (0 for the first) to `staged(2i+1)`, strictly
      * ascending in hub rank. No vertex has two blocks, and none is empty.
      */
    val staged: IntBuf = new IntBuf(16)
    val hubs: IntBuf = new IntBuf(64)
    val cnts: LongBuf = new LongBuf(64)

    /** Stage the blocks `blocks` (same layout as `staged`, ends relative to
      * `h` and `c`) after those already staged.
      */
    def stage(blocks: Array[Int], h: Array[Int], c: Array[Long]): Unit = {
      val base = hubs.len
      var i = 0
      while (i < blocks.length) { staged += blocks(i); staged += base + blocks(i + 1); i += 2 }
      i = 0
      while (i < h.length) { hubs += h(i); cnts += c(i); i += 1 }
    }
  }

  /** One round's pull phase: `(d, scratches)` pulls every vertex of the
    * round's frontier, the vertices `Kernel.flagged`, against the frozen
    * `L_{<=d-1}`, clears their flags and leaves the survivors staged in
    * `scratches` (one per worker, any of them).
    */
  type PullRound = (Int, Array[Scratch]) => Unit

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
    * stores, and serialisation writes only `[0, len(v))` and the stamps.
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
    /** `v`'s last block, the entries it gained in round `lastRound(v)`,
      * lives at indices [prevStart(v), len(v)). Each list is in ascending
      * distance with `v` itself at index 0 (round 0), so in round `d` the
      * block holds distance-(d-1) entries iff `lastRound(v) == d-1`; then
      * [1, prevStart(v)) holds exactly v's entries at distances 1..d-2,
      * else [1, len(v)) does. `pull` reads and scans only these ranges.
      */
    private val prevStart: Array[Int] = new Array[Int](n)
    private val stamps: Array[Int] = new Array[Int](n)
    /** Round `d`'s frontier: the neighbours of the vertices that gained
      * entries in round `d-1` (every vertex with a neighbour before round 1).
      * The round's appends set the flags, its pulls clear them; only the
      * build that owns the kernel reads them, so a copy has none.
      */
    @transient private[repro] val flagged: Array[Boolean] = Array.tabulate(n)(g.deg(_) > 0)

    /** The round in which `v` last gained entries (0 for L_0 only). */
    def lastRound(v: Int): Int = stamps(v)

    /** Pull the distance-`d` candidates of `u` from its neighbours'
      * round-(d-1) blocks (rank rule, Label Elimination, Label Merging),
      * prune them (landmark filter, query rule), and stage the survivors
      * in `s` as `u`'s block, strictly ascending in hub rank.
      *
      * A neighbour's block is read only if it is stamped `d-1`. It is
      * sorted by hub rank, so the entries the rank rule drops are its
      * suffix from the first hub ranked at or below `u`, and the scan stops
      * there (DESIGN.md §2).
      *
      * @throws ArithmeticException if a survivor's count exceeds a `Long`
      */
    def pull(u: Int, d: Int, s: Scratch): Unit = {
      val ru = rank(u)
      val hu = hubs(u); val du = dists(u); val lu = len(u)
      var i = 0
      while (i < lu) { s.tmpDist(hu(i)) = du(i); i += 1 }
      s.candList.clear()
      g.foreachNbr(u) { v =>
        if (stamps(v) == d - 1) {
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
      }
      // survivors go to s.hubs unordered from `start`; their counts stay in candCnt
      val start = s.hubs.len
      var lo = Int.MaxValue; var hi = -1
      var k = 0
      while (k < s.candList.len) {
        val w = s.candList(k)
        // -1 undecided, 0 keep, 1 prune
        var verdict = if (landmarks != null) landmarks.decide(w, u, d) else -1
        if (verdict == -1) {
          // query rule: scan L(w) for a common hub x with
          // dis(u,x) + dis(x,w) < d. Only entries at distances 1..d-2 can:
          // index 0 is w, which Label Elimination kept out of L(u), and
          // every other x outranks u, so dis(u,x) >= 1.
          val x = order(w)
          val hw = hubs(x); val dw = dists(x)
          val end = if (stamps(x) == d - 1) prevStart(x) else len(x)
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
          s.hubs += w
          if (w < lo) lo = w
          if (w > hi) hi = w
        } else s.candCnt(w) = 0L
        k += 1
      }
      val end = s.hubs.len
      if (end - start > 1) sortRanks(s, start, lo, hi)
      k = start
      while (k < end) { val w = s.hubs(k); s.cnts += s.candCnt(w); s.candCnt(w) = 0L; k += 1 }
      if (end > start) { s.staged += u; s.staged += end }
      i = 0
      while (i < lu) { s.tmpDist(hu(i)) = -1; i += 1 }
    }

    /** Sort the distinct ranks `s.hubs` from `start` on, all in `[lo, hi]`,
      * ascending, without comparisons: set a bit per rank, then read the
      * bits back in order, one word per 64 ranks of `[lo, hi]`.
      */
    private def sortRanks(s: Scratch, start: Int, lo: Int, hi: Int): Unit = {
      val out = s.hubs.a; val end = s.hubs.len
      val bits = s.rankBits
      var k = start
      while (k < end) { val w = out(k); bits(w >>> 6) |= 1L << w; k += 1 }
      k = start
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

    /** Append the blocks staged in `s` as their vertices' round-`d` blocks,
      * flag every neighbour of those vertices for round `d+1`, and clear
      * `s`. The arrays double when they run out of room. Appending round by
      * round keeps each list in ascending distance with `v` at index 0,
      * which `prevStart` and the query rule in `pull` depend on; each block
      * is sorted by hub rank, which the rank rule's bound in `pull` and the
      * merge in `index` depend on. Workers append disjoint vertices; their
      * flag writes race only to write the same value.
      */
    private def appendStaged(s: Scratch, d: Int): Unit = {
      val sh = s.hubs.a; val sc = s.cnts.a
      var from = 0
      var i = 0
      while (i < s.staged.len) {
        val v = s.staged(i); val until = s.staged(i + 1)
        val old = len(v)
        val need = old + until - from
        if (need > hubs(v).length) {
          val cap = math.max(need, 2 * hubs(v).length)
          hubs(v) = java.util.Arrays.copyOf(hubs(v), cap)
          dists(v) = java.util.Arrays.copyOf(dists(v), cap)
          cnts(v) = java.util.Arrays.copyOf(cnts(v), cap)
        }
        System.arraycopy(sh, from, hubs(v), old, until - from)
        java.util.Arrays.fill(dists(v), old, need, d)
        System.arraycopy(sc, from, cnts(v), old, until - from)
        prevStart(v) = old; len(v) = need; stamps(v) = d
        g.foreachNbr(v) { u => flagged(u) = true }
        from = until; i += 2
      }
      s.staged.clear(); s.hubs.clear(); s.cnts.clear()
    }

    /** The round protocol (paper §III). Round `d = 1, 2, …` is two passes
      * on `workers` with nothing between them:
      *  1. `pullRound(d, scratches)` pulls the flagged vertices against the
      *     frozen `L_{<=d-1}` and stages their survivors, each worker in its
      *     own [[Scratch]];
      *  2. each worker appends the blocks of one scratch, stamps them `d`
      *     and flags their vertices' neighbours, the frontier of round `d+1`.
      * Rounds stop at the first one that stages nothing.
      *
      * @return the number of rounds that added entries
      */
    private[Pspc] def rounds(workers: Workers)(pullRound: PullRound): Int = {
      val scratches = Array.fill(workers.count)(new Scratch(n))
      var d = 1
      while ({ pullRound(d, scratches); scratches.exists(_.staged.len > 0) }) {
        workers.static(scratches.length) { (_, from, until) =>
          var t = from
          while (t < until) { appendStaged(scratches(t), d); t += 1 }
        }
        d += 1
      }
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

  /** The threaded pull phase of `build`: each round sweeps `[0, n)` on
    * the pool and pulls the flagged vertices. The static schedule sweeps
    * in rank order, one equal range per worker; the dynamic schedule
    * sweeps in vertex-id order, and workers grab small chunks of it. Id
    * order keeps consecutive pulls on nearby label arrays on road-like
    * graphs; the paper's cost-sorted schedule did not pay (DESIGN.md §3).
    */
  private[repro] def threadedPulls(g: Graph, order: Array[Int], schedule: Schedule)(
      workers: Workers, kernel: Kernel): PullRound = {
    val n = g.n
    val byRank = schedule == StaticSchedule
    val flagged = kernel.flagged
    (d, scratches) => {
      val pulls = (tid: Int, from: Int, until: Int) => {
        val s = scratches(tid)
        var k = from
        while (k < until) {
          val u = if (byRank) order(k) else k
          if (flagged(u)) { flagged(u) = false; kernel.pull(u, d, s) }
          k += 1
        }
      }
      schedule match {
        case StaticSchedule  => workers.static(n)(pulls)
        case DynamicSchedule => workers.dynamic(n, math.max(16, n / (workers.count * 64)))(pulls)
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
    * @param schedule     static rank-order ranges or dynamic id-order chunks
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
