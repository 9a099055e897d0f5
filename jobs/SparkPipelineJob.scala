package repro.jobs

import java.nio.file.Files
import org.apache.spark.sql.SparkSession
import repro.benchlib.SparkPipeline

/** Distributed storage/retrieval workflow (Fig. 2): per-partition LCP
  * compression of a particle DataFrame, Parquet storage, and full and
  * partial retrieval.
  *
  *   spark-submit --class repro.jobs.SparkPipelineJob <jar> [outputDir]
  */
object SparkPipelineJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("lcp-pipeline")
      .getOrCreate()
    try {
      val dir = args.headOption.getOrElse(Files.createTempDirectory("lcp-job").toString + "/store")
      println(SparkPipeline.table(SparkPipeline.run(spark, dir)))
    } finally spark.stop()
  }
}
