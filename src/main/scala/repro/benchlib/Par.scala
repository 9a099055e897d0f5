package repro.benchlib

import java.util.concurrent.{Callable, Executors}
import scala.jdk.CollectionConverters._

/** Thread-pool map for the bench sweeps. Every (dataset, eb, codec) cell is
  * independent, mirroring the paper's per-rank parallel compression; only
  * the timing benches (Figs 16–18) stay sequential for clean measurements.
  */
object Par {
  def map[A, B](in: Seq[A])(f: A => B): Seq[B] = {
    val pool = Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors)
    try {
      val futures = pool.invokeAll(in.map(a => new Callable[B] { def call(): B = f(a) }).asJava)
      futures.asScala.toSeq.map(_.get())
    } finally pool.shutdown()
  }
}
