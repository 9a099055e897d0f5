package repro.bench

import java.nio.file.Files
import repro.SparkSpec
import repro.benchlib._

/** The data-management workflow of Fig. 2 on Spark + Parquet: parallel
  * per-partition compression, columnar storage, and partial retrieval
  * (§2.1.3) — retrieving one batch must touch a fraction of the data. */
class SparkPipelineBench extends SparkSpec {

  test("Spark pipeline: compress to Parquet, report CR and retrieval times") {
    val r = SparkPipeline.run(spark, Files.createTempDirectory("lcp-bench").toString + "/store")
    println(SparkPipeline.table(r))
    assert(r.compressedBytes < r.origBytes / 2, "expected at least 2x compression")
    assert(r.batchRows == BenchData.multi("Helium").head.n.toLong * 16, "one batch = 16 frames")
  }
}
