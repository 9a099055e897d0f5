package repro.benchlib

import org.apache.spark.sql.SparkSession
import repro.core.Lcp.LcpConfig
import repro.metrics.Metrics
import repro.sparkio.LcpSpark

/** The data-management workflow of Fig. 2 on Spark + Parquet, on Helium at
  * eb 1e-2 and batch 16 with one batch per stored group: parallel
  * per-partition compression, columnar storage, full retrieval and partial
  * retrieval of one batch (§2.1.3). */
object SparkPipeline {

  private val Config: LcpConfig = LcpConfig(eb = 1e-2, batchSize = 16)

  /** Sizes in bytes and wall times in seconds; `batchRows` is the number of
    * particle rows the one-batch read returned. */
  final case class Run(store: String, origBytes: Long, compressedBytes: Long,
                       compressS: Double, fullReadS: Double, batchReadS: Double, batchRows: Long)

  def run(spark: SparkSession, store: String): Run = {
    val frames = BenchData.multi("Helium")
    val df     = LcpSpark.framesToDf(spark, frames)
    val (groups, compressS) = Metrics.time {
      val g = LcpSpark.compress(df, Config, batchesPerGroup = 1).cache()
      g.count() // force
      g
    }
    LcpSpark.writeParquet(groups, store)
    val compressed = groups.collect().map(_.blob.length.toLong).sum
    val (_, fullReadS) = Metrics.time(LcpSpark.decompressToDf(LcpSpark.readStore(spark, store)).count())
    val (batchRows, batchReadS) = Metrics.time(
      LcpSpark.readFrameBatch(spark, store, Config, batchesPerGroup = 1, frameIdx = 0).count())
    Run(store, Metrics.originalSizeBytes(frames), compressed, compressS, fullReadS, batchReadS, batchRows)
  }

  def table(r: Run): String =
    TableFmt.render("Spark pipeline (Helium, eb=1e-2, batch=16)", Seq("Metric", "Value"), Seq(
      Seq("store", r.store),
      Seq("original size", TableFmt.bytes(r.origBytes)),
      Seq("compressed size", TableFmt.bytes(r.compressedBytes)),
      Seq("compression ratio", TableFmt.f2(r.origBytes.toDouble / r.compressedBytes)),
      Seq("parallel compress wall time", f"${r.compressS}%.2f s"),
      Seq("full retrieval wall time", f"${r.fullReadS}%.2f s"),
      Seq("single-batch retrieval wall time", f"${r.batchReadS}%.2f s")))
}
