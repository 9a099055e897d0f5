package repro.sparkio

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core.{Frame, Lcp}
import repro.core.Lcp.{LcpArchive, LcpConfig}

/** Spark integration of LCP as a per-partition codec (DESIGN.md §3):
  * particle rows are grouped into *groups* of consecutive batches, each
  * group is compressed by one task into a single LCP archive blob, and the
  * blobs are written to Parquet. Retrieval filters the Parquet down to the
  * group holding the requested batch and decompresses only that batch —
  * the paper's partial-retrieval workflow (§2.1.3) on a data lake layout.
  *
  * Groups are independent (each starts with its own anchor frame), so
  * compression parallelizes across partitions; within a group the full
  * cross-batch anchor-sharing of §7.3 applies.
  */
object LcpSpark {

  /** One particle row: frame index, index within the frame, coordinates. */
  final case class ParticleRow(frame: Int, id: Int, x: Double, y: Double, z: Double)

  /** One compressed group: `firstFrame` to `firstFrame + numFrames - 1`
    * packed as a standalone LCP archive. */
  final case class CompressedGroup(group: Int, firstFrame: Int, numFrames: Int, blob: Array[Byte])

  /** One row per particle of `frames`, whose first frame has index `first`. */
  private def toRows(frames: Seq[Frame], first: Int): Seq[ParticleRow] =
    frames.zipWithIndex.flatMap { case (f, k) =>
      (0 until f.n).map(i => ParticleRow(first + k, i, f.x(i), f.y(i), f.z(i)))
    }

  /** Frames → row-per-particle DataFrame. */
  def framesToDf(spark: SparkSession, frames: Seq[Frame]): DataFrame = {
    import spark.implicits._
    toRows(frames, 0).toDF()
  }

  /** Collect a group's rows (already sorted by frame, id) into frames. */
  private def rowsToFrames(rows: Iterator[ParticleRow]): IndexedSeq[(Int, Frame)] =
    rows.toIndexedSeq.groupBy(_.frame).toIndexedSeq.sortBy(_._1).map { case (t, rs) =>
      val sorted = rs.sortBy(_.id)
      t -> Frame(sorted.map(_.x).toArray, sorted.map(_.y).toArray, sorted.map(_.z).toArray)
    }

  /** Compress a particle DataFrame: one task per group of `batchesPerGroup`
    * consecutive batches. Returns one blob row per group. */
  def compress(df: DataFrame, cfg: LcpConfig, batchesPerGroup: Int = 4): Dataset[CompressedGroup] = {
    val spark = df.sparkSession
    import spark.implicits._
    val framesPerGroup = cfg.batchSize * batchesPerGroup
    df.select($"frame", $"id", $"x", $"y", $"z")
      .as[ParticleRow]
      .groupByKey(_.frame / framesPerGroup)
      .mapGroups { (group, rows) =>
        val frames = rowsToFrames(rows)
        val result = Lcp.compress(frames.map(_._2), cfg)
        CompressedGroup(group, frames.head._1, frames.size, result.archive.toBytes)
      }
  }

  /** Decompress every group back to particle rows. `id` is the stored slot
    * within the frame (block order — multiset semantics, DESIGN.md §2). */
  def decompressToDf(groups: Dataset[CompressedGroup]): DataFrame = {
    val spark = groups.sparkSession
    import spark.implicits._
    groups.flatMap(g => toRows(Lcp.decompressAll(LcpArchive.fromBytes(g.blob)), g.firstFrame)).toDF()
  }

  /** Write compressed groups to Parquet at `path`. */
  def writeParquet(groups: Dataset[CompressedGroup], path: String): Unit =
    groups.write.mode("overwrite").parquet(path)

  /** Partial retrieval: decompress only the batch containing `frameIdx`
    * from the Parquet store — reads a single group row. */
  def readFrameBatch(spark: SparkSession, path: String, cfg: LcpConfig,
                     batchesPerGroup: Int, frameIdx: Int): DataFrame = {
    import spark.implicits._
    val framesPerGroup = cfg.batchSize * batchesPerGroup
    val group = frameIdx / framesPerGroup
    spark.read.parquet(path).as[CompressedGroup]
      .filter(_.group == group)
      .flatMap { g =>
        val archive    = LcpArchive.fromBytes(g.blob)
        val localFrame = frameIdx - g.firstFrame
        val batchIdx   = localFrame / archive.batchSize
        toRows(Lcp.decompressBatch(archive, batchIdx), g.firstFrame + batchIdx * archive.batchSize)
      }.toDF()
  }
}
