package repro.core

/** Minimal growable primitive buffers. HP-SPC grows its labels in them,
  * already in hub-rank order, and hands their trimmed copies to the
  * [[LabelIndex]] constructor; PSPC's kernel uses them as per-worker scratch.
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
