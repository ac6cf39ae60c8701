package repro.core

/** Minimal growable primitive buffers. Both index builders keep labels in
  * parallel primitive arrays and hand them to `LabelIndex.fromArrays`, the
  * one rank sort, so the HP-SPC baseline and PSPC share the same
  * per-entry constants (fair Exp 1 comparison). HP-SPC, the sequential
  * baseline, sorts on one thread; PSPC sorts on the build's pool.
  */
final class IntBuf(initial: Int = 4) extends Serializable {
  var a: Array[Int] = new Array[Int](initial)
  var len: Int = 0
  @inline def +=(x: Int): Unit = {
    if (len == a.length) a = java.util.Arrays.copyOf(a, a.length * 2)
    a(len) = x; len += 1
  }
  @inline def apply(i: Int): Int = a(i)
  def toArray: Array[Int] = java.util.Arrays.copyOf(a, len)
  def clear(): Unit = len = 0
}

final class LongBuf(initial: Int = 4) extends Serializable {
  var a: Array[Long] = new Array[Long](initial)
  var len: Int = 0
  @inline def +=(x: Long): Unit = {
    if (len == a.length) a = java.util.Arrays.copyOf(a, a.length * 2)
    a(len) = x; len += 1
  }
  @inline def apply(i: Int): Long = a(i)
  def toArray: Array[Long] = java.util.Arrays.copyOf(a, len)
  def clear(): Unit = len = 0
}
