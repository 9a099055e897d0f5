package repro.core

import java.util.concurrent.RecursiveAction

/** Fork/join over a fixed list of independent pure tasks. On compress:
  * LCP-T's x/y/z residual arrays (§7.1), the §7.4.1 block-size candidates
  * and the §7.4.2 trial arms. On decode: an archive's anchors, then its
  * batches (§7.3), LCP-T's three residual sections and LCP-S's five
  * sections (§6.2). The baselines fork their frames (frame-wise codecs),
  * SZ2, SZ3 and SPERR's three dimensions and MDZ's batches, both ways, and the bench
  * sweeps fork their cells. (The paper's codec is parallel per block and
  * per frame.)
  *
  * The first task runs on the calling thread, the rest on
  * `ForkJoinPool.commonPool()`, which the JVM sizes. Joining from a pool
  * thread runs queued work instead of blocking, so a task may itself call
  * [[map]] (a trial arm forks its LCP-T dimensions) without deadlock.
  */
object Fork {

  /** Holds its task's result or failure, so that the failure reaches the
    * caller as thrown: `ForkJoinTask.join` rethrows an exception raised on
    * another thread as a reflective copy, whose message differs. */
  private final class Task[A, B](a: A, f: A => B) extends RecursiveAction {
    var result: B          = _
    var failure: Throwable = null
    def compute(): Unit = try result = f(a) catch { case t: Throwable => failure = t }
  }

  /** `in.map(f)` with the elements evaluated concurrently. Every task is
    * joined before `map` returns or throws; when tasks fail, the failure of
    * the first in `in`'s order is rethrown as it was raised. */
  def map[A, B](in: Seq[A])(f: A => B): IndexedSeq[B] = {
    val tasks = in.toIndexedSeq.map(new Task(_, f))
    tasks.drop(1).foreach(_.fork())
    tasks.headOption.foreach(_.compute())
    // Newest first: a task no pool thread has taken yet is run by the caller.
    tasks.drop(1).reverseIterator.foreach(_.quietlyJoin())
    tasks.foreach(t => if (t.failure != null) throw t.failure)
    tasks.map(_.result)
  }
}
