package repro.perfbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** Sample statistics and JVM counters shared by the workloads. */
object Stats {

  /** Linear-interpolated quantile, `q` in [0, 1]. */
  def quantile(xs: collection.Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s   = xs.sorted
    val pos = q * (s.size - 1)
    val lo  = math.floor(pos).toInt
    val hi  = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: collection.Seq[Double]): Double = quantile(xs, 0.5)

  def nanosToMs(ns: Long): Double = ns / 1e6

  /** Total collection time of every collector so far, in ms. */
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated by the calling thread so far. */
  def threadAllocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** Bytes allocated by every thread of the JVM so far. */
  def totalAllocated(): Long = threads.getTotalThreadAllocatedBytes

  def jvmArgs: Seq[String] = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq

  def sha256(bytes: Array[Byte]): String =
    java.security.MessageDigest.getInstance("SHA-256").digest(bytes).map(b => f"${b & 0xff}%02x").mkString
}
