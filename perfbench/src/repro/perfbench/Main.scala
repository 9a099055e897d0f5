package repro.perfbench

import java.nio.file.Paths
import scala.collection.mutable

final case class Metric(value: Double, unit: String)

/** What one workload run reports: the end-to-end metrics, the per-layer
  * metrics (filled only by a traced run) and everything else for the
  * detail line — settings, raw samples, digests. */
final case class Outcome(endToEnd: Seq[(String, Metric)],
                         perLayer: Seq[(String, Metric)],
                         detail: Seq[(String, Any)])

/** JVM entry point, started by perfbench/run.py:
  * `--workload W --seed N --seconds S --trace 0|1 --out DIR --work DIR`.
  * Prints one detail line and then the result line, as JSON. */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts("workload")
    val seed     = opts("seed").toLong
    val seconds  = opts("seconds").toDouble
    val traced   = opts("trace") == "1"
    val tally    = new Tally

    val outcome = workload match {
      case "md-temporal" => MdBench.run(seed, seconds, traced, tally)
      case "lake"        => LakeBench.run(seed, seconds, traced, tally, Paths.get(opts("work")))
      case other         => sys.error(s"unknown workload $other")
    }
    if (traced) Trace.writeJson(Paths.get(opts("out"), "trace", s"$workload-seed$seed.json"))

    def asJson(ms: Seq[(String, Metric)]) =
      mutable.LinkedHashMap(ms.map { case (k, m) => k -> Map("value" -> m.value, "unit" -> m.unit) }: _*)
    val detail = mutable.LinkedHashMap[String, Any](
      "workload" -> workload, "seed" -> seed, "seconds" -> seconds, "trace" -> traced,
      "jvm_args" -> Stats.jvmArgs,
      "failed_op_share" -> tally.share, "failures" -> tally.failures)
    detail ++= outcome.detail
    detail("end_to_end") = asJson(outcome.endToEnd)
    if (traced) {
      detail("per_layer") = asJson(outcome.perLayer)
      detail("self_ms_by_layer") = Trace.selfMsByLayer
    }
    println(Json.write(Map("detail" -> detail)))
    println(Json.write(mutable.LinkedHashMap(
      "correct"   -> (tally.failed == 0),
      "attempted" -> tally.attempted,
      "failed"    -> tally.failed,
      "metrics"   -> asJson(if (traced) outcome.perLayer else outcome.endToEnd))))
    System.out.flush()
    sys.exit(0)
  }
}
