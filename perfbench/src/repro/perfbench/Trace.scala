package repro.perfbench

import scala.collection.mutable

/** In-memory span recorder for the traced run. Spans are recorded by the
  * benchmark around its calls into the codec and Spark layers (the program
  * itself is not instrumented), kept in memory and written out once at the
  * end. With tracing off, [[span]] only evaluates its body.
  *
  * A span has a name, start, end, the id of the span that was open when it
  * began (its parent, -1 for a root) and the operation id shared by every
  * span of one benchmark operation. `count` attaches counts to the
  * innermost open span.
  */
object Trace {
  final case class Span(id: Int, parent: Int, op: Long, name: String,
                        startNs: Long, endNs: Long, counts: collection.Map[String, Long])

  @volatile var enabled = false

  private val spans  = mutable.ArrayBuffer.empty[Span]
  private var stack  = List.empty[(Int, mutable.Map[String, Long])]
  private var nextId = 0

  def span[T](name: String, op: Long)(body: => T): T =
    if (!enabled) body
    else {
      val id     = nextId
      nextId += 1
      val parent = stack.headOption.map(_._1).getOrElse(-1)
      val counts = mutable.LinkedHashMap.empty[String, Long]
      stack = (id, counts) :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        stack = stack.tail
        spans += Span(id, parent, op, name, t0, t1, counts)
      }
    }

  def count(key: String, value: Long): Unit =
    if (enabled) stack.headOption.foreach { case (_, c) => c(key) = c.getOrElse(key, 0L) + value }

  /** Self time per layer in ms: each span's duration minus the part its
    * children cover, summed by layer (the span name up to its last dot,
    * e.g. `core.LcpS` for `core.LcpS.compress`).
    *
    * A span named `X.stages` holds the replayed stages of the whole call `X`
    * (see [[Replay]]). Those stages ran inside `X`, so their time is taken
    * off `X`'s layer; the replay's own glue is not the program's and is
    * dropped. */
  def selfMsByLayer: collection.Map[String, Double] = {
    val childNs = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.endNs - s.startNs)
    val out = mutable.TreeMap.empty[String, Double].withDefaultValue(0.0)
    def layer(name: String) = name.substring(0, math.max(0, name.lastIndexOf('.')))
    spans.foreach { s =>
      if (s.name.endsWith(".stages")) out(layer(s.name.stripSuffix(".stages"))) -= childNs(s.id) / 1e6
      else out(layer(s.name)) += (s.endNs - s.startNs - childNs(s.id)) / 1e6
    }
    out
  }

  def writeJson(path: java.nio.file.Path): Unit = {
    val rows = spans.map(s => Map("id" -> s.id, "parent" -> s.parent, "op" -> s.op, "name" -> s.name,
      "start_ns" -> s.startNs, "end_ns" -> s.endNs, "counts" -> s.counts))
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.writeString(path, Json.write(rows))
  }
}

/** Operations attempted and failed. An operation fails when it throws or
  * one of its output checks fails; checks run outside the timed region. */
final class Tally {
  var attempted = 0L
  var failed    = 0L
  val failures  = mutable.ArrayBuffer.empty[String]

  /** Run one operation; `body` returns whether its checks passed. */
  def op(name: String)(body: => Boolean): Unit = {
    attempted += 1
    val problem =
      try { if (body) None else Some("output check failed") }
      catch { case scala.util.control.NonFatal(e) => Some(s"threw $e") }
    problem.foreach { p =>
      failed += 1
      if (failures.size < 20) failures += s"$name: $p"
    }
  }

  def share: Double = if (attempted == 0) 0.0 else failed.toDouble / attempted
}
