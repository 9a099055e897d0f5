package repro.sparkio

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core.{Frame, Lcp}
import repro.core.Lcp.{LcpArchive, LcpConfig}

/** Spark integration of LCP as a per-group codec (DESIGN.md §3): a frame
  * is one row, frame rows are grouped into *groups* of consecutive batches,
  * each group is compressed by one task into a single LCP archive blob, and
  * the blobs are written to Parquet. Retrieval pushes a filter on the group
  * into the Parquet scan and decompresses only the batch holding the
  * requested frame — the paper's partial-retrieval workflow (§2.1.3) on a
  * data lake layout.
  *
  * Groups are independent (each starts with its own anchor frame), so
  * compression parallelizes across tasks; within a group the full
  * cross-batch anchor-sharing of §7.3 applies.
  */
object LcpSpark {

  /** One frame: its index and its coordinates. */
  final case class FrameRow(frame: Int, x: Array[Double], y: Array[Double], z: Array[Double])

  /** One particle row of a decompressed table: frame index, index within
    * the frame, coordinates. */
  final case class ParticleRow(frame: Int, id: Int, x: Double, y: Double, z: Double)

  /** One compressed group: `firstFrame` to `firstFrame + numFrames - 1`
    * packed as a standalone LCP archive. */
  final case class CompressedGroup(group: Int, firstFrame: Int, numFrames: Int, blob: Array[Byte])

  /** One row per particle of `frames`, whose first frame has index `first`,
    * produced as Spark consumes them. */
  private def toRows(frames: Seq[Frame], first: Int): Iterator[ParticleRow] =
    frames.iterator.zipWithIndex.flatMap { case (f, k) =>
      Iterator.range(0, f.n).map(i => ParticleRow(first + k, i, f.x(i), f.y(i), f.z(i)))
    }

  /** Frames → one [[FrameRow]] per frame, numbered from 0. */
  def framesToDf(spark: SparkSession, frames: Seq[Frame]): DataFrame = {
    import spark.implicits._
    frames.zipWithIndex.map { case (f, t) => FrameRow(t, f.x, f.y, f.z) }.toDF()
  }

  /** Compress a frame DataFrame from [[framesToDf]]: one task per group of
    * `batchesPerGroup` consecutive batches. Returns one blob row per group. */
  def compress(df: DataFrame, cfg: LcpConfig, batchesPerGroup: Int = 4): Dataset[CompressedGroup] = {
    val spark = df.sparkSession
    import spark.implicits._
    val framesPerGroup = cfg.batchSize * batchesPerGroup
    df.as[FrameRow]
      .groupByKey(_.frame / framesPerGroup)
      .mapGroups { (group, rows) =>
        val sorted = rows.toIndexedSeq.sortBy(_.frame)
        val result = Lcp.compress(sorted.map(r => Frame(r.x, r.y, r.z)), cfg)
        CompressedGroup(group, sorted.head.frame, sorted.size, result.archive.toBytes)
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
    * from the Parquet store. The group predicate is a Column, so Parquet
    * can skip the row groups of every other group. */
  def readFrameBatch(spark: SparkSession, path: String, cfg: LcpConfig,
                     batchesPerGroup: Int, frameIdx: Int): DataFrame = {
    import spark.implicits._
    val framesPerGroup = cfg.batchSize * batchesPerGroup
    val group = frameIdx / framesPerGroup
    spark.read.parquet(path)
      .where($"group" === group)
      .as[CompressedGroup]
      .flatMap { g =>
        val archive    = LcpArchive.fromBytes(g.blob)
        val localFrame = frameIdx - g.firstFrame
        val batchIdx   = localFrame / archive.batchSize
        toRows(Lcp.decompressBatch(archive, batchIdx), g.firstFrame + batchIdx * archive.batchSize)
      }.toDF()
  }
}
