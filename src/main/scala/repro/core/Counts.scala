package repro.core

/** Path-count arithmetic that cannot wrap. Counts are non-negative `Long`s;
  * a sum or product beyond a `Long` gives [[Overflow]], which every later
  * sum or product keeps. Intermediate counts may overflow harmlessly (a
  * candidate that is pruned, a query term that a shorter hub replaces), so
  * the builders and the query throw only when they would store or answer
  * an overflowed count: an index is exact or its build or query fails.
  */
private[core] object Counts {
  final val Overflow = -1L

  @inline def add(a: Long, b: Long): Long =
    if ((a | b) < 0) Overflow
    else { val s = a + b; if (s < 0) Overflow else s }

  @inline def mul(a: Long, b: Long): Long =
    if ((a | b) < 0) Overflow
    else { val p = a * b; if (p < 0 || Math.multiplyHigh(a, b) != 0) Overflow else p }

  /** The failure of a build whose count of vertex `v` at hub `h` overflows. */
  def overflow(v: Int, h: Int): ArithmeticException =
    new ArithmeticException(s"the path count of vertex $v at hub $h exceeds a Long")
}
