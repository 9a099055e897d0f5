package repro.bench

import java.nio.file.Files
import repro.SparkSpec
import repro.benchlib._
import repro.core.Lcp.LcpConfig
import repro.metrics.Metrics
import repro.sparkio.LcpSpark

/** The data-management workflow of Fig. 2 on Spark + Parquet: parallel
  * per-partition compression, columnar storage, and partial retrieval
  * (§2.1.3) — retrieving one batch must touch a fraction of the data. */
class SparkPipelineBench extends SparkSpec {

  private lazy val frames = BenchData.multiFrame.find(_._1 == "Helium").get._2
  private val cfg         = LcpConfig(eb = 1e-2, batchSize = 16)

  test("Spark pipeline: compress to Parquet, report CR and retrieval times") {
    val dir = Files.createTempDirectory("lcp-bench").toString + "/store"
    val df  = LcpSpark.framesToDf(spark, frames)

    val (groups, compT) = Metrics.time {
      val g = LcpSpark.compress(df, cfg, batchesPerGroup = 1).cache()
      g.count() // force
      g
    }
    LcpSpark.writeParquet(groups, dir)
    val compressedBytes = groups.collect().map(_.blob.length.toLong).sum
    val origBytes       = Metrics.originalSizeBytes(frames)

    val (_, fullT) = Metrics.time {
      LcpSpark.decompressToDf(LcpSpark.readStore(spark, dir)).count()
    }
    val (batchRows, partT) = Metrics.time {
      LcpSpark.readFrameBatch(spark, dir, cfg, batchesPerGroup = 1, frameIdx = 0).count()
    }

    println(TableFmt.render("Spark pipeline (Helium, eb=1e-2, batch=16)",
      Seq("Metric", "Value"),
      Seq(
        Seq("original size", TableFmt.bytes(origBytes)),
        Seq("compressed size", TableFmt.bytes(compressedBytes)),
        Seq("compression ratio", TableFmt.f2(origBytes.toDouble / compressedBytes)),
        Seq("parallel compress wall time", f"$compT%.2f s"),
        Seq("full retrieval wall time", f"$fullT%.2f s"),
        Seq("single-batch retrieval wall time", f"$partT%.2f s"))))

    assert(compressedBytes < origBytes / 2, "expected at least 2x compression")
    assert(batchRows == frames.head.n.toLong * 16, "one batch = 16 frames")
  }
}
