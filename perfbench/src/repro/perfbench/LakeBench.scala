package repro.perfbench

import java.nio.file.{Files, Path}
import java.util.Arrays
import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{Encoders, Row, SparkSession}
import org.apache.spark.sql.execution.FileSourceScanExec
import repro.core.{Frame, Lcp}
import repro.core.Lcp.{LcpArchive, LcpConfig}
import repro.data.Particles
import repro.metrics.Metrics
import repro.sparkio.LcpSpark
import repro.sparkio.LcpSpark.CompressedGroup

/** The lake workload: the only one with `sparkio` on the path. Helium
  * frames go through driver-side `framesToDf`, the `groupByKey` shuffle and
  * one LCP task per group into Parquet (ingest); reads are `readFrameBatch`
  * — a Parquet scan with a lambda filter, so no pushdown — fully collected.
  * With `batchesPerGroup = 1` a group is one batch, so a read decodes
  * exactly the requested batch. One client thread, closed loop.
  */
object LakeBench {
  val Dataset         = "Helium"
  val NumParticles    = 5000
  val Frames          = 64
  val Eb              = 1e-2
  val BatchSize       = 16
  val BatchesPerGroup = 1
  val Master          = "local[4]"
  val ShufflePartitions = 4

  /** Set-up, warm-up included, runs this many times; the median is
    * `setup_s`. */
  val SetupPasses = 3
  /** A round is one ingest, `FullReadsPerRound` full reads and
    * `ReadsPerRound` batch reads (targets cycle through every batch). Four
    * rounds give 112 reads, so the p90 has more than ten samples beyond it. */
  val MinRounds         = 4
  val ReadsPerRound     = 28
  val FullReadsPerRound = 5
  val WarmupReads       = 5
  val ReplayPasses      = 3

  /** Span operation ids: reads count from 1, ingests and full reads are
    * offset so that ids stay unique. */
  private val IngestOps   = 1000000L
  private val FullReadOps = 2000000L

  /** Sums task metrics per job group; events arrive asynchronously, so
    * [[await]] blocks until every job of a group has ended. */
  private final class Counters extends SparkListener {
    private val stageGroup = new ConcurrentHashMap[Int, String]()
    private val ended      = ConcurrentHashMap.newKeySet[Int]()
    val bytesRead    = new ConcurrentHashMap[String, java.lang.Long]()
    val shuffleWrite = new ConcurrentHashMap[String, java.lang.Long]()

    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
      e.stageIds.foreach(stageGroup.put(_, group))
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      val group = stageGroup.getOrDefault(e.stageId, "")
      if (e.taskMetrics != null) {
        bytesRead.merge(group, e.taskMetrics.inputMetrics.bytesRead, (a, b) => a + b)
        shuffleWrite.merge(group, e.taskMetrics.shuffleWriteMetrics.bytesWritten, (a, b) => a + b)
      }
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = ended.add(e.jobId)

    def await(spark: SparkSession, group: String): Unit = {
      val ids = spark.sparkContext.statusTracker.getJobIdsForGroup(group)
      val deadline = System.nanoTime() + 30e9.toLong
      while (!ids.forall(ended.contains)) {
        require(System.nanoTime() < deadline, s"listener events for $group did not arrive")
        Thread.sleep(1)
      }
    }
    def read(m: ConcurrentHashMap[String, java.lang.Long], group: String): Long =
      Option(m.get(group)).map(_.longValue).getOrElse(0L)
  }

  private def deleteTree(p: Path): Unit =
    if (Files.exists(p)) Files.walk(p).iterator().asScala.toSeq.reverse.foreach(Files.delete)

  /** Rows (frame, id, x, y, z) hold exactly the frames `first`,
    * `first + 1`, ... of `expected`, each particle once. */
  private def rowsMatch(rows: Array[Row], first: Int, expected: IndexedSeq[Frame]): Boolean = {
    val n    = expected.head.n
    val seen = new java.util.BitSet(expected.size * n)
    rows.length == expected.size * n && rows.forall { r =>
      val k = r.getInt(0) - first; val i = r.getInt(1)
      k >= 0 && k < expected.size && i >= 0 && i < n && !seen.get(k * n + i) && {
        seen.set(k * n + i)
        val f = expected(k)
        r.getDouble(2) == f.x(i) && r.getDouble(3) == f.y(i) && r.getDouble(4) == f.z(i)
      }
    }
  }

  private def startSpark(work: Path): SparkSession =
    SparkSession.builder()
      .master(Master)
      .appName("perfbench-lake")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.adaptive.enabled", "false")
      // Parquet's vectored reads bypass Hadoop's per-thread byte counters,
      // so inputMetrics.bytesRead would count only the footers.
      .config("spark.hadoop.parquet.hadoop.vectored.io.enabled", "false")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .getOrCreate()

  def run(seed: Long, seconds: Double, traced: Boolean, tally: Tally, work: Path): Outcome = {
    val cfg            = LcpConfig(Eb, BatchSize)
    val framesPerGroup = BatchSize * BatchesPerGroup
    val groups         = (Frames + framesPerGroup - 1) / framesPerGroup
    val asGroups       = Encoders.product[CompressedGroup]

    // Set by each set-up pass: the frames, the local compression of each
    // group (the blobs the lake must store) and its decode, the session and
    // the store every read uses.
    var frames: IndexedSeq[Frame]           = null
    var local: IndexedSeq[Lcp.Result]       = null
    var localBlobs: IndexedSeq[Array[Byte]] = null
    var refFrames: IndexedSeq[Frame]        = null
    var spark: SparkSession                 = null
    var counters: Counters                  = null
    var store: Path                         = null

    var jobGroup = 0
    def withGroup[T](prefix: String)(body: String => T): T = {
      jobGroup += 1
      val g = s"$prefix-$jobGroup"
      spark.sparkContext.setJobGroup(g, g)
      try body(g) finally spark.sparkContext.clearJobGroup()
    }

    /** The store holds one row per group with exactly the local blob. */
    def storeMatches(path: Path): Boolean = {
      val stored = spark.read.parquet(path.toString).as(asGroups).collect().sortBy(_.group)
      stored.length == groups && stored.indices.forall { g =>
        stored(g).group == g && stored(g).firstFrame == g * framesPerGroup &&
          Arrays.equals(stored(g).blob, localBlobs(g))
      }
    }

    val ingestNs, framesToDfNs, compressWriteNs, allocBytes, shuffleBytes = ArrayBuffer.empty[Long]
    var ingests = 0
    def ingest(record: Boolean): Path = {
      ingests += 1
      val path = work.resolve("lake").resolve(s"store-$ingests")
      tally.op("ingest") {
        withGroup("ingest") { g =>
          val a0 = Stats.totalAllocated()
          val t0 = System.nanoTime()
          Trace.span("op.ingest", IngestOps + ingests) {
            val df = Trace.span("sparkio.LcpSpark.frames_to_df", IngestOps + ingests)(LcpSpark.framesToDf(spark, frames))
            val t1 = System.nanoTime()
            Trace.span("sparkio.LcpSpark.compress_write", IngestOps + ingests) {
              LcpSpark.writeParquet(LcpSpark.compress(df, cfg, BatchesPerGroup), path.toString)
            }
            val t2 = System.nanoTime()
            if (record) {
              framesToDfNs += t1 - t0; compressWriteNs += t2 - t1; ingestNs += t2 - t0
              allocBytes += Stats.totalAllocated() - a0
            }
          }
          counters.await(spark, g)
          if (record) shuffleBytes += counters.read(counters.shuffleWrite, g)
        }
        storeMatches(path)
      }
      path
    }

    // The ingest check compared every stored blob with its local blob, so
    // the local blobs stand for the stored ones below.
    val readNs, readBytes, localDecodeNs = ArrayBuffer.empty[Long]
    val readTraced = ArrayBuffer.empty[Boolean]
    var pushedFilters, filesRead = 0L
    var reads = 0
    def readBatch(record: Boolean): Unit = {
      val batch = reads % groups
      val frame = batch * framesPerGroup + (reads / groups) % framesPerGroup
      reads += 1
      // A traced run records spans on every other read; the others give
      // the tracing overhead.
      Trace.enabled = traced && reads % 2 == 0
      tally.op(s"readFrameBatch $frame") {
        withGroup("read") { g =>
          val t0 = System.nanoTime()
          val (df, rows) = Trace.span("op.batch_read", reads) {
            val df = LcpSpark.readFrameBatch(spark, store.toString, cfg, BatchesPerGroup, frame)
            (df, Trace.span("sparkio.read.collect", reads)(df.collect()))
          }
          val dt = System.nanoTime() - t0
          counters.await(spark, g)
          val l0 = System.nanoTime()
          val localBatch = Trace.span("sparkio.read.local_decode", reads) {
            Lcp.decompressBatch(LcpArchive.fromBytes(localBlobs(batch)), 0)
          }
          val localDt = System.nanoTime() - l0
          if (record) {
            readNs += dt; localDecodeNs += localDt; readTraced += Trace.enabled
            readBytes += counters.read(counters.bytesRead, g)
            val scans = df.queryExecution.executedPlan.collect { case s: FileSourceScanExec => s }
            pushedFilters = scans.map { s =>
              val pushed = s.metadata.getOrElse("PushedFilters", "[]").stripPrefix("[").stripSuffix("]").trim
              if (pushed.isEmpty) 0L else pushed.split(", ").length.toLong
            }.sum
            filesRead = scans.map(_.metrics.get("numFiles").map(_.value).getOrElse(0L)).sum
          }
          rowsMatch(rows, batch * framesPerGroup, localBatch) &&
            localBatch.indices.forall(k => MdBench.sameFrame(localBatch(k), refFrames(batch * framesPerGroup + k)))
        }
      }
      Trace.enabled = false
    }

    val fullReadNs = ArrayBuffer.empty[Long]
    def fullRead(record: Boolean): Unit = tally.op("decompressToDf") {
      val t0 = System.nanoTime()
      val rows = Trace.span("op.full_read", FullReadOps + fullReadNs.size) {
        LcpSpark.decompressToDf(spark.read.parquet(store.toString).as(asGroups)).collect()
      }
      if (record) fullReadNs += System.nanoTime() - t0
      rowsMatch(rows, 0, refFrames)
    }

    // Set-up: generate the frames, compress and decode each group locally,
    // start Spark and warm up with one ingest (which gives the store), a few
    // batch reads and a full read. Every pass but the last stops its
    // session; the median pass is `setup_s`.
    val setupS, sparkStartS = ArrayBuffer.empty[Double]
    for (pass <- 0 until SetupPasses) {
      if (spark != null) { spark.stop(); deleteTree(store) }
      val t0 = System.nanoTime()
      tally.op("set-up") {
        val fs    = Particles.byName(Dataset).gen(NumParticles, Frames, seed)
        val res   = fs.grouped(framesPerGroup).map(Lcp.compress(_, cfg)).toIndexedSeq
        val blobs = res.map(_.archive.toBytes)
        val repeatable = localBlobs == null || blobs.corresponds(localBlobs)(Arrays.equals(_, _))
        frames = fs; local = res; localBlobs = blobs
        refFrames = blobs.flatMap(b => Lcp.decompressAll(LcpArchive.fromBytes(b)))
        repeatable && blobs.size == groups
      }
      require(local != null, "set-up failed")
      val s0 = System.nanoTime()
      spark = startSpark(work)
      counters = new Counters
      spark.sparkContext.addSparkListener(counters)
      sparkStartS += (System.nanoTime() - s0) / 1e9
      store = ingest(record = false)
      for (_ <- 0 until WarmupReads) readBatch(record = false)
      fullRead(record = false)
      setupS += (System.nanoTime() - t0) / 1e9
    }
    val origSize   = Metrics.originalSizeBytes(frames)
    val storeBytes = Files.list(store).iterator().asScala
      .filter(_.getFileName.toString.startsWith("part-")).map(Files.size).sum

    val gc0   = Stats.gcMillis()
    val start = System.nanoTime()
    var round = 0
    while (round < MinRounds || (System.nanoTime() - start) / 1e9 < seconds) {
      Trace.enabled = traced
      deleteTree(ingest(record = true))
      Trace.enabled = traced
      for (_ <- 0 until FullReadsPerRound) fullRead(record = true)
      for (_ <- 0 until ReadsPerRound) readBatch(record = true)
      round += 1
    }
    val loopMs  = (System.nanoTime() - start) / 1e6
    val gcShare = (Stats.gcMillis() - gc0) / loopMs
    Trace.enabled = false
    spark.stop()

    def ms(xs: ArrayBuffer[Long]) = xs.map(Stats.nanosToMs)
    val origMB = origSize / 1e6
    val readMs = ms(readNs)
    val endToEnd = Seq(
      "setup_s"                -> Metric(Stats.median(setupS), "s"),
      "compression_ratio"      -> Metric(origSize.toDouble / storeBytes, "x"),
      "compress_MBps"          -> Metric(origMB / (Stats.median(ms(ingestNs)) / 1e3), "MB/s"),
      "decompress_MBps"        -> Metric(origMB / (Stats.median(ms(fullReadNs)) / 1e3), "MB/s"),
      "batch_retrieval_ms_p50" -> Metric(Stats.quantile(readMs, 0.5), "ms"),
      "batch_retrieval_ms_p90" -> Metric(Stats.quantile(readMs, 0.9), "ms"),
      // LcpSpark's smallest retrieval unit is a batch: a frame retrieval
      // is the same readFrameBatch call.
      "frame_retrieval_ms_p50" -> Metric(Stats.quantile(readMs, 0.5), "ms"),
      "frame_retrieval_ms_p90" -> Metric(Stats.quantile(readMs, 0.9), "ms"),
      "batch_read_MB"          -> Metric(Stats.median(readBytes.map(_.toDouble)) / 1e6, "MB"),
      "compress_alloc_B_per_B" -> Metric(Stats.median(allocBytes.map(_.toDouble)) / origSize, "B/B"))

    val perLayer =
      if (!traced) Seq.empty
      else {
        val inputs = local.indices.map { g =>
          val slice = frames.slice(g * framesPerGroup, (g + 1) * framesPerGroup)
          Replay.Input(slice, cfg, local(g), refFrames.slice(g * framesPerGroup, (g + 1) * framesPerGroup))
        }
        val tracedReads   = readNs.indices.filter(readTraced).map(i => readNs(i) / 1e6)
        val untracedReads = readNs.indices.filterNot(readTraced).map(i => readNs(i) / 1e6)
        Trace.enabled = true
        val replay = Replay.run(inputs, ReplayPasses, tally)
        Trace.enabled = false
        replay ++ Seq(
          "jvm.gc_ms_share"                      -> Metric(gcShare, "share"),
          "sparkio.LcpSpark.frames_to_df_s"      -> Metric(Stats.median(ms(framesToDfNs)) / 1e3, "s"),
          "sparkio.LcpSpark.compress_write_s"    -> Metric(Stats.median(ms(compressWriteNs)) / 1e3, "s"),
          "sparkio.LcpSpark.shuffle_write_bytes" -> Metric(Stats.median(shuffleBytes.map(_.toDouble)), "B"),
          "sparkio.read.pushed_filters"          -> Metric(pushedFilters.toDouble, "count"),
          "sparkio.read.files_read"              -> Metric(filesRead.toDouble, "count"),
          "sparkio.read.local_decode_ms"         -> Metric(Stats.median(ms(localDecodeNs)), "ms"),
          "trace.overhead_share"                 ->
            Metric(Stats.median(tracedReads) / Stats.median(untracedReads) - 1, "share"))
      }

    val detail = Seq(
      "settings" -> Map("dataset" -> Dataset, "particles" -> NumParticles, "frames" -> Frames, "eb" -> Eb,
        "batch_size" -> BatchSize, "batches_per_group" -> BatchesPerGroup, "spark_master" -> Master,
        "shuffle_partitions" -> ShufflePartitions, "adaptive_query_execution" -> false,
        "parquet_vectored_io" -> false,
        "clients" -> 1, "loop" -> "closed"),
      "archive_sha256" -> Stats.sha256(localBlobs.flatten.toArray),
      "stored_blob_bytes" -> localBlobs.map(_.length.toLong).sum,
      "store_parquet_bytes" -> storeBytes,
      "decisions" -> Map("methods" -> local.map(_.methods.mkString).mkString("|"),
        "p" -> local.map(_.archive.p), "t_trials" -> local.map(_.tTrials).sum),
      "rounds" -> round, "spark_start_s_samples" -> sparkStartS, "gc_ms_share" -> gcShare,
      "setup_s_samples" -> setupS,
      "sample_counts" -> Map("ingest" -> ingestNs.size, "full_read" -> fullReadNs.size, "batch_read" -> readNs.size),
      "samples_ms" -> Map("ingest" -> ms(ingestNs), "frames_to_df" -> ms(framesToDfNs),
        "compress_write" -> ms(compressWriteNs), "full_read" -> ms(fullReadNs), "batch_read" -> readMs,
        "local_decode" -> ms(localDecodeNs)),
      "batch_read_bytes" -> readBytes, "ingest_alloc_bytes" -> allocBytes, "shuffle_write_bytes" -> shuffleBytes)
    Outcome(endToEnd, perLayer, detail)
  }
}
