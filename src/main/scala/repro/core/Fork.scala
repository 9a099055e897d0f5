package repro.core

import java.util.concurrent.RecursiveAction

/** Fork/join over independent pure tasks. On compress: LCP-T's x/y/z
  * residual arrays (§7.1), the packing and Zstd of an LCP-T frame that
  * LCP-FSM committed before it was packed ([[start]], while later frames'
  * chain steps run), the §7.4.1 block-size candidates and the §7.4.2 trial
  * arms. On decode: every frame a retrieval needs, then each chain's basis
  * additions per dimension (§7.3, `Lcp.decode`), LCP-T's three residual
  * sections and LCP-S's five sections (§6.2). The baselines
  * fork their frames (frame-wise codecs), SZ2, SZ3 and SPERR's three
  * dimensions and MDZ's batches, both ways, and the bench sweeps fork their
  * cells. (The paper's codec is parallel per block and per frame.)
  *
  * Forked tasks run on `ForkJoinPool.commonPool()`, which the JVM sizes.
  * Joining from a pool thread runs queued work instead of blocking, so a
  * task may itself call [[map]] (a trial arm forks its LCP-T dimensions)
  * without deadlock.
  */
object Fork {

  /** Holds its task's result or failure, so that the failure reaches the
    * caller as thrown: `ForkJoinTask.join` rethrows an exception raised on
    * another thread as a reflective copy, whose message differs. Once run,
    * it drops its input and its function. */
  private final class Task[A, B](private var a: A, private var f: A => B) extends RecursiveAction {
    var result: B          = _
    var failure: Throwable = null
    def compute(): Unit =
      try result = f(a)
      catch { case t: Throwable => failure = t }
      finally { a = null.asInstanceOf[A]; f = null }

    /** The result of the task, which has run, or its failure, rethrown. */
    def value: B = {
      if (failure != null) throw failure
      result
    }
  }

  /** A task started by [[start]]. */
  final class Started[B] private[Fork] (task: Task[_, B]) {
    /** Waits for the task, running it here if no pool thread has taken it,
      * then returns its result or rethrows its failure as it was raised. */
    def join(): B = {
      task.quietlyJoin()
      task.value
    }
  }

  /** `f(a)`, started on the pool; its caller goes on and joins it later. */
  def start[A, B](a: A)(f: A => B): Started[B] = {
    val t = new Task(a, f)
    t.fork()
    new Started(t)
  }

  /** `in.map(f)` with the elements evaluated concurrently, the first on the
    * calling thread. Every task is joined before `map` returns or throws;
    * when tasks fail, the failure of the first in `in`'s order is rethrown
    * as it was raised. */
  def map[A, B](in: Seq[A])(f: A => B): IndexedSeq[B] = {
    val tasks = in.toIndexedSeq.map(new Task(_, f))
    tasks.drop(1).foreach(_.fork())
    tasks.headOption.foreach(_.compute())
    // Newest first: a task no pool thread has taken yet is run by the caller.
    tasks.drop(1).reverseIterator.foreach(_.quietlyJoin())
    tasks.map(_.value)
  }
}
