package repro.core

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import org.scalatest.funsuite.AnyFunSuite

class WorkersSuite extends AnyFunSuite {

  private val loops = Seq[(String, Workers => ((Int, Int, Int) => Unit) => Unit)](
    "static" -> (w => w.static(1000)),
    "dynamic" -> (w => w.dynamic(1000, 16)),
  )

  for ((name, loop) <- loops)
    test(s"a throwing task fails the $name loop and leaves no worker thread alive") {
      val threads = 4
      val seen = ConcurrentHashMap.newKeySet[Thread]()
      // every worker waits in its first task until all have arrived, so
      // `seen` holds the whole pool before the task at index 0 throws
      val arrived = new CountDownLatch(threads)
      val workers = new Workers(threads)
      val e = intercept[IllegalStateException] {
        try
          loop(workers) { (_, from, _) =>
            seen.add(Thread.currentThread())
            arrived.countDown()
            arrived.await(10, TimeUnit.SECONDS)
            if (from == 0) throw new IllegalStateException("task failed")
          }
        finally workers.close()
      }
      assert(e.getMessage == "task failed")
      assert(seen.size == threads)
      seen.forEach(_.join(10000))
      seen.forEach(t => assert(!t.isAlive, s"worker $t is still alive"))
    }
}
