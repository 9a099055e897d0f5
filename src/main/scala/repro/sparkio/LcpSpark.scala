package repro.sparkio

import org.apache.hadoop.fs.Path
import org.apache.parquet.HadoopReadOptions
import org.apache.parquet.format.converter.ParquetMetadataConverter.SKIP_ROW_GROUPS
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.spark.sql.{DataFrame, Dataset, Encoders, SparkSession}
import org.apache.spark.sql.execution.datasources.parquet.ParquetToSparkSchemaConverter
import repro.core.{Frame, Lcp}
import repro.core.Lcp.{LcpArchive, LcpConfig}

/** Spark integration of LCP as a per-group codec (DESIGN.md §3): a frame
  * is one row, frame rows are grouped into *groups* of consecutive batches,
  * each group is compressed by one task into a single LCP archive blob, and
  * the blobs are written to Parquet. The read path is one typed reader with
  * the fixed `CompressedGroup` schema ([[readStore]]); a batch read is one
  * Spark job with a pushed group filter, and it decompresses only the batch
  * holding the requested frame — the paper's partial-retrieval workflow
  * (§2.1.3) on a data lake layout.
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

  /** The store's schema, which is always that of [[CompressedGroup]]. */
  private val StoreSchema = Encoders.product[CompressedGroup].schema

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

  /** The frames in a group of `batchesPerGroup` (at least 1) batches, as a
    * `Long`: a group larger than any input holds every frame, not none. */
  private def framesPerGroup(cfg: LcpConfig, batchesPerGroup: Int): Long = {
    require(batchesPerGroup >= 1, s"batchesPerGroup must be at least 1, got $batchesPerGroup")
    cfg.batchSize.toLong * batchesPerGroup
  }

  /** Compress a frame DataFrame from [[framesToDf]]: one task per group of
    * `batchesPerGroup` consecutive batches. Returns one blob row per group.
    * A group's frame indices must be consecutive and distinct, since a group
    * stores only its first index and its frame count. */
  def compress(df: DataFrame, cfg: LcpConfig, batchesPerGroup: Int): Dataset[CompressedGroup] = {
    val perGroup = framesPerGroup(cfg, batchesPerGroup)
    val spark    = df.sparkSession
    import spark.implicits._
    df.as[FrameRow]
      .groupByKey(r => (r.frame / perGroup).toInt)
      .mapGroups { (group, rows) =>
        val sorted = rows.toIndexedSeq.sortBy(_.frame)
        require(sorted.indices.forall(k => sorted(k).frame == sorted.head.frame + k),
          s"group $group: its ${sorted.size} frames ${sorted.head.frame}..${sorted.last.frame} are not consecutive and distinct")
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

  /** The Parquet store at `path` as typed groups. The schema is given, so
    * no Spark job infers it. Given a schema, Parquet reads an absent column
    * as null, so the footer of one stored file is checked on the driver
    * first: a directory without the store's four columns, or with one of
    * another type, raises `IllegalArgumentException`, as does a directory
    * without Parquet files. A missing path raises Spark's `AnalysisException`. */
  def readStore(spark: SparkSession, path: String): Dataset[CompressedGroup] = {
    val store  = spark.read.schema(StoreSchema).parquet(path).as[CompressedGroup](Encoders.product)
    val file   = store.inputFiles.headOption
      .getOrElse(throw new IllegalArgumentException(s"$path holds no Parquet files"))
    val conf   = spark.sparkContext.hadoopConfiguration
    val reader = ParquetFileReader.open(HadoopInputFile.fromPath(new Path(file), conf),
      HadoopReadOptions.builder(conf).withMetadataFilter(SKIP_ROW_GROUPS).build())
    val found =
      try new ParquetToSparkSchemaConverter().convert(reader.getFileMetaData.getSchema)
      finally reader.close()
    val missing = StoreSchema.filterNot(f => found.exists(g => g.name == f.name && g.dataType == f.dataType))
    require(missing.isEmpty, s"$path is not a CompressedGroup store: it lacks " +
      missing.map(f => s"${f.name}: ${f.dataType.simpleString}").mkString(", "))
    store
  }

  /** Partial retrieval: decompress only the batch containing `frameIdx`
    * from the Parquet store. The group predicate is a Column, so Parquet
    * can skip the row groups of every other group. A frame that its group
    * does not hold gives no rows. */
  def readFrameBatch(spark: SparkSession, path: String, cfg: LcpConfig,
                     batchesPerGroup: Int, frameIdx: Int): DataFrame = {
    val group = (frameIdx / framesPerGroup(cfg, batchesPerGroup)).toInt
    require(frameIdx >= 0, s"frameIdx must be non-negative, got $frameIdx")
    import spark.implicits._
    readStore(spark, path)
      .where($"group" === group)
      .flatMap { g =>
        val localFrame = frameIdx - g.firstFrame
        if (localFrame < 0 || localFrame >= g.numFrames) Iterator.empty
        else {
          val archive  = LcpArchive.fromBytes(g.blob)
          val batchIdx = localFrame / archive.batchSize
          toRows(Lcp.decompressBatch(archive, batchIdx), g.firstFrame + batchIdx * archive.batchSize)
        }
      }.toDF()
  }
}
