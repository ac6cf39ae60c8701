package repro.core

import java.util.concurrent.atomic.AtomicInteger
import java.util.concurrent.{Callable, ExecutionException, ExecutorService, Executors}

/** A fixed pool of `threads` daemon workers that runs ranged loops over
  * `[0, total)`; `task(worker, from, until)` gets a worker id in
  * `0 until threads`. With one thread no pool is started and loops run
  * inline. Close it in `finally`: daemon threads keep a task that throws
  * from pinning the JVM, and `close` keeps it from leaking the pool.
  */
final class Workers(threads: Int) extends AutoCloseable {

  /** Number of workers: loops hand out worker ids in `0 until count`. */
  val count: Int = math.max(1, threads)

  private val pool: ExecutorService =
    if (threads > 1)
      Executors.newFixedThreadPool(
        threads,
        (r: Runnable) => { val t = new Thread(r); t.setDaemon(true); t },
      )
    else null

  /** Static schedule: one contiguous, equal chunk per worker. */
  def static(total: Int)(task: (Int, Int, Int) => Unit): Unit = {
    val per = (total + count - 1) / count
    run(total, task) { t =>
      val from = math.min(t * per, total)
      task(t, from, math.min(from + per, total))
    }
  }

  /** Dynamic schedule: workers repeatedly grab the next `chunk` indices. */
  def dynamic(total: Int, chunk: Int)(task: (Int, Int, Int) => Unit): Unit = {
    val next = new AtomicInteger(0)
    run(total, task) { t =>
      var from = next.getAndAdd(chunk)
      while (from < total) {
        task(t, from, math.min(from + chunk, total))
        from = next.getAndAdd(chunk)
      }
    }
  }

  /** Run `worker(t)` on every worker and wait for all of them; a task that
    * throws rethrows its own exception here.
    */
  private def run(total: Int, task: (Int, Int, Int) => Unit)(worker: Int => Unit): Unit =
    if (pool == null || total == 0) task(0, 0, total)
    else {
      val futures = (0 until count).map { t =>
        pool.submit(new Callable[Unit] { def call(): Unit = worker(t) })
      }
      try futures.foreach(_.get())
      catch { case e: ExecutionException => throw e.getCause }
    }

  def close(): Unit = if (pool != null) pool.shutdownNow()
}
