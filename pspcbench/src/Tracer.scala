package pspcbench

import scala.collection.mutable

/** One timed interval; `parent` is the id of the enclosing span, or -1. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Spans recorded around the benchmark's calls into the program. They stay
  * in memory until `toJson` writes them out at the end of the run. A
  * disabled tracer only runs the body, so the untraced run pays nothing.
  */
final class Tracer(val enabled: Boolean) {
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private val open = mutable.Stack.empty[Int]
  private var nextId = 0

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open.push(id)
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open.pop()
        spans += Span(id, parent, name, t0, t1)
      }
    }

  /** Record a child of the last closed span named `parentName`, for a
    * phase whose duration the program reports but whose bounds it does not.
    */
  def child(parentName: String, name: String, startNs: Long, durNs: Long): Unit =
    if (enabled) {
      val p = spans.findLast(_.name == parentName).get
      spans += Span(nextId, p.id, name, startNs, startNs + durNs)
      nextId += 1
    }

  /** Durations in ms of every span named `name`. */
  def ms(name: String): Seq[Double] = spans.iterator.filter(_.name == name).map(_.ms).toSeq

  def toJson: String =
    spans.sortBy(_.startNs).map { s =>
      s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","start_ns":${s.startNs},"end_ns":${s.endNs}}"""
    }.mkString("[\n", ",\n", "\n]\n")
}
