package repro.jobs

import repro.benchlib._

/** spark-submit entrypoints, one per reproduced table/figure family.
  * The codec itself is CPU-bound Scala, so most jobs run on the driver;
  * [[SparkPipelineJob]] exercises the distributed per-partition path.
  *
  *   spark-submit --class repro.jobs.RatioJob target/scala-2.13/repro_2.13-*.jar
  */
object Table1Job {
  def main(args: Array[String]): Unit = println(DataTables.datasetTable(DataTables.datasets()))
}

/** Table 2: entropy / autocorrelation vs blocking. */
object Table2Entropy {
  def main(args: Array[String]): Unit = println(DataTables.blockingTable(DataTables.blocking()))
}

/** Table 3: Huffman vs fixed-length section sizes. */
object Table3Coding {
  def main(args: Array[String]): Unit = println(DataTables.codingTable(DataTables.coding()))
}

/** Fig 8 + Fig 9. */
object AblationJob {
  def main(args: Array[String]): Unit = {
    println(AblationTables.ablationTable(AblationTables.ablation()))
    println(AblationTables.errorTable(AblationTables.errorDistribution()))
  }
}

/** Figs 10 + 11. */
object RatioJob {
  def main(args: Array[String]): Unit = {
    val cells = RatioTables.cells()
    println(RatioTables.ratios(cells))
    println(RatioTables.rankingTable(RatioTables.ranking(cells)))
    println(RatioTables.improvementTable(RatioTables.improvements(cells)))
  }
}

/** Figs 12 + 13. */
object RateDistortionJob {
  def main(args: Array[String]): Unit = {
    val single = RateDistortionTables.singleFrame()
    println(RateDistortionTables.singleFrameTable(single))
    println(RateDistortionTables.psnrAdvantage(single))
    println(RateDistortionTables.multiFrameTable(RateDistortionTables.multiFrame()))
  }
}

/** Figs 16–18. */
object SpeedJob {
  def main(args: Array[String]): Unit = {
    val single = SpeedTables.singleFrame()
    val batch  = SpeedTables.batchMode()
    println(SpeedTables.table("Fig 16+17: single-frame speed (MB/s)", single))
    println(SpeedTables.decompressionAdvantage(single, "Fig 17 summary"))
    println(SpeedTables.table("Fig 18: batch-mode speed (MB/s)", batch))
    println(SpeedTables.decompressionAdvantage(batch, "Fig 18 summary"))
  }
}

/** Figs 5–7. */
object OptimizationJob {
  def main(args: Array[String]): Unit = {
    println(OptTables.blockSizeTable(OptTables.blockSizeSweep()))
    println(OptTables.optimizerTable(OptTables.optimizerEffectiveness()))
    println(OptTables.ebScaleTable(OptTables.ebScaleSweep()))
  }
}
