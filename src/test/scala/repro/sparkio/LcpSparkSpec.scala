package repro.sparkio

import java.nio.file.Files
import org.apache.spark.SparkException
import org.apache.spark.sql.AnalysisException
import org.apache.spark.sql.execution.FileSourceScanExec
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFrames}
import repro.core.{Frame, Lcp}
import repro.core.Lcp.LcpConfig
import repro.metrics.Metrics

/** End-to-end Spark path: particle rows → per-partition LCP compression →
  * Parquet → partial retrieval → the decompressed table.
  */
class LcpSparkSpec extends SparkSpec {

  private lazy val frames = TestFrames.copper(800, 8)
  private val cfg         = LcpConfig(eb = 0.02, batchSize = 4)

  /** `frames` stored at one batch per group: groups 0 and 1. */
  private lazy val store = {
    val dir = Files.createTempDirectory("lcp-parquet").toString + "/store"
    LcpSpark.writeParquet(LcpSpark.compress(LcpSpark.framesToDf(spark, frames), cfg, batchesPerGroup = 1), dir)
    dir
  }

  /** Ids of the Spark jobs that `body` runs. A marker job in its own group
    * runs after `body`; the status store handles events in order, so once
    * it lists the marker, it lists every job of `body`. */
  private def jobsOf(body: => Unit): Seq[Int] = {
    val sc = spark.sparkContext
    val g  = s"jobs-${System.nanoTime()}"
    def inGroup(id: String)(run: => Unit): Unit = {
      sc.setJobGroup(id, id)
      try run finally sc.clearJobGroup()
    }
    inGroup(g)(body)
    inGroup(s"$g-marker")(sc.parallelize(Seq(1), 1).count())
    val deadline = System.nanoTime() + 30e9.toLong
    while (sc.statusTracker.getJobIdsForGroup(s"$g-marker").isEmpty) {
      assert(System.nanoTime() < deadline, "the marker job never reached the status store")
      Thread.sleep(1)
    }
    sc.statusTracker.getJobIdsForGroup(g).toSeq
  }

  test("framesToDf: one row per frame, arrays bit-equal") {
    val spk = spark
    import spk.implicits._
    val rows = LcpSpark.framesToDf(spark, frames).as[LcpSpark.FrameRow].collect().sortBy(_.frame)
    assert(rows.map(_.frame).toSeq == frames.indices)
    rows.zip(frames).foreach { case (r, f) =>
      assert(java.util.Arrays.equals(r.x, f.x) && java.util.Arrays.equals(r.y, f.y) &&
        java.util.Arrays.equals(r.z, f.z), s"frame ${r.frame}")
    }
    assert(rows.map(_.x.length.toLong).sum == frames.map(_.n.toLong).sum)
  }

  test("compress produces one group per batchesPerGroup batches") {
    val df = LcpSpark.framesToDf(spark, frames)
    val groups = LcpSpark.compress(df, cfg, batchesPerGroup = 1).collect()
    assert(groups.length == 2) // 8 frames / (4 frames per batch * 1)
    assert(groups.map(_.numFrames).sum == 8)
  }

  test("every stored blob equals the local Lcp.compress of its group's frames") {
    // 10 frames at batch 4: the last group is partial at 1 and at 2 batches per group.
    val ten = TestFrames.copper(800, 10)
    for (bpg <- Seq(1, 2)) {
      val perGroup = cfg.batchSize * bpg
      val expected = ten.grouped(perGroup).toIndexedSeq
      val groups   = LcpSpark.compress(LcpSpark.framesToDf(spark, ten), cfg, bpg).collect().sortBy(_.group)
      assert(groups.map(_.group).toSeq == expected.indices, s"bpg $bpg")
      groups.zip(expected).foreach { case (g, fs) =>
        assert(g.firstFrame == g.group * perGroup && g.numFrames == fs.size, s"bpg $bpg group ${g.group}")
        assert(java.util.Arrays.equals(g.blob, Lcp.compress(fs, cfg).archive.toBytes), s"bpg $bpg group ${g.group}")
      }
    }
  }

  test("roundtrip through Spark preserves counts and the error bound per frame") {
    val df     = LcpSpark.framesToDf(spark, frames)
    val groups = LcpSpark.compress(df, cfg, batchesPerGroup = 2)
    val back   = LcpSpark.decompressToDf(groups)

    val counts = back.groupBy("frame").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    frames.zipWithIndex.foreach { case (f, t) => assert(counts(t) == f.n, s"frame $t") }

    // Bound check via per-frame coordinate span: every decompressed value
    // must lie inside [min-eb, max+eb] of its original frame, and per-frame
    // mean positions agree within eb.
    val stats = back.groupBy("frame")
      .agg(min("x") as "mnx", max("x") as "mxx", avg("x") as "ax",
           avg("y") as "ay", avg("z") as "az")
      .collect().map(r => r.getInt(0) -> r).toMap
    val slack = cfg.eb * (1 + 1e-9)
    frames.zipWithIndex.foreach { case (f, t) =>
      val r = stats(t)
      assert(r.getDouble(1) >= f.x.min - slack && r.getDouble(2) <= f.x.max + slack)
      assert(math.abs(r.getDouble(3) - f.x.sum / f.n) <= slack)
      assert(math.abs(r.getDouble(4) - f.y.sum / f.n) <= slack)
      assert(math.abs(r.getDouble(5) - f.z.sum / f.n) <= slack)
    }

    // Per particle: frame t's rows, ordered by id, match the original frame
    // reordered by the local compression's stored order within eb.
    val perms = Lcp.compress(frames, cfg).perms
    val rows  = back.collect().groupBy(_.getInt(0))
    frames.zipWithIndex.foreach { case (f, t) =>
      val got = rows(t).sortBy(_.getInt(1))
      val ref = f.reorder(perms(t))
      got.indices.foreach { s =>
        val r = got(s)
        assert(r.getInt(1) == s, s"frame $t ids")
        assert(math.abs(r.getDouble(2) - ref.x(s)) <= slack && math.abs(r.getDouble(3) - ref.y(s)) <= slack &&
          math.abs(r.getDouble(4) - ref.z(s)) <= slack, s"frame $t particle $s")
      }
    }
  }

  test("an empty frame inside a group keeps its index through the Spark round trip") {
    val withEmpty = frames.updated(3, Frame.empty)
    val groups    = LcpSpark.compress(LcpSpark.framesToDf(spark, withEmpty), cfg, batchesPerGroup = 2)
    assert(groups.collect().map(_.numFrames).toSeq == Seq(8))
    val counts = LcpSpark.decompressToDf(groups).groupBy("frame").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    withEmpty.zipWithIndex.foreach { case (f, t) => assert(counts.getOrElse(t, 0L) == f.n, s"frame $t") }
  }

  test("Parquet write + partial retrieval decodes only the requested batch") {
    val dir = Files.createTempDirectory("lcp-parquet").toString + "/store"
    val df  = LcpSpark.framesToDf(spark, frames)
    LcpSpark.writeParquet(LcpSpark.compress(df, cfg, batchesPerGroup = 1), dir)

    val batch = LcpSpark.readFrameBatch(spark, dir, cfg, batchesPerGroup = 1, frameIdx = 5)
    val gotFrames = batch.select("frame").distinct().collect().map(_.getInt(0)).sorted
    assert(gotFrames.sameElements(Array(4, 5, 6, 7)), "second batch holds frames 4..7")
    assert(batch.count() == frames(5).n.toLong * 4)
  }

  test("a batch read pushes its group filter into the Parquet scan") {
    val dir = Files.createTempDirectory("lcp-parquet").toString + "/store"
    LcpSpark.writeParquet(LcpSpark.compress(LcpSpark.framesToDf(spark, frames), cfg, batchesPerGroup = 1), dir)
    val batch  = LcpSpark.readFrameBatch(spark, dir, cfg, batchesPerGroup = 1, frameIdx = 5)
    val pushed = batch.queryExecution.executedPlan.collect { case s: FileSourceScanExec => s }
      .map(_.metadata.getOrElse("PushedFilters", ""))
    assert(pushed.exists(_.contains("EqualTo(group,1)")), pushed.mkString("; "))
  }

  test("a batch read is one Spark job") {
    val dir  = store // written outside the counted group
    val jobs = jobsOf(LcpSpark.readFrameBatch(spark, dir, cfg, batchesPerGroup = 1, frameIdx = 5).collect())
    assert(jobs.size == 1, s"jobs ${jobs.mkString(", ")}")
  }

  test("readStore returns exactly the written groups with byte-equal blobs") {
    val written = LcpSpark.compress(LcpSpark.framesToDf(spark, frames), cfg, batchesPerGroup = 1).collect().sortBy(_.group)
    val read    = LcpSpark.readStore(spark, store).collect().sortBy(_.group)
    assert(read.map(g => (g.group, g.firstFrame, g.numFrames)).toSeq ==
      written.map(g => (g.group, g.firstFrame, g.numFrames)).toSeq)
    read.zip(written).foreach { case (r, w) => assert(java.util.Arrays.equals(r.blob, w.blob), s"group ${r.group}") }
  }

  test("readStore rejects a Parquet directory without the store's columns") {
    val spk = spark
    import spk.implicits._
    val root    = Files.createTempDirectory("lcp-parquet").toString
    val noBlob  = Seq((0, "a"), (1, "b")).toDF("group", "name")
    val strBlob = Seq((0, 0, 4, "a")).toDF("group", "firstFrame", "numFrames", "blob")
    for ((other, k) <- Seq(noBlob, strBlob).zipWithIndex) {
      val dir = s"$root/other$k"
      other.write.parquet(dir)
      val e = intercept[IllegalArgumentException](LcpSpark.readStore(spark, dir))
      assert(e.getMessage.contains(dir) && e.getMessage.contains("blob: binary"), e.getMessage)
      intercept[IllegalArgumentException](LcpSpark.readFrameBatch(spark, dir, cfg, batchesPerGroup = 1, frameIdx = 0))
    }
  }

  test("readStore rejects a missing path, naming it") {
    val dir = Files.createTempDirectory("lcp-parquet").toString + "/absent"
    val e   = intercept[AnalysisException](LcpSpark.readStore(spark, dir))
    assert(e.getMessage.contains(dir), e.getMessage)
  }

  test("a negative frame index fails fast") {
    intercept[IllegalArgumentException](LcpSpark.readFrameBatch(spark, store, cfg, batchesPerGroup = 1, frameIdx = -1))
  }

  /** The frame indices of the rows that a batch read of frame `i` returns. */
  private def framesRead(dir: String, batchesPerGroup: Int, i: Int): Seq[Int] =
    LcpSpark.readFrameBatch(spark, dir, cfg, batchesPerGroup, i)
      .select("frame").distinct().collect().map(_.getInt(0)).sorted.toSeq

  test("a frame past the end of a partial last group gives no rows") {
    // 10 frames at batch 4, one batch per group: group 2 holds frames 8 and 9.
    val dir = Files.createTempDirectory("lcp-parquet").toString + "/store"
    LcpSpark.writeParquet(LcpSpark.compress(LcpSpark.framesToDf(spark, TestFrames.copper(800, 10)), cfg, 1), dir)
    assert(framesRead(dir, 1, 9) == Seq(8, 9))
    for (i <- Seq(10, 11)) assert(framesRead(dir, 1, i).isEmpty, s"frame $i")
  }

  test("a frame before its group's first frame gives no rows") {
    // Frames numbered 2..9 at two batches per group: group 0 holds 2..7.
    val dir     = Files.createTempDirectory("lcp-parquet").toString + "/store"
    val shifted = LcpSpark.framesToDf(spark, frames).withColumn("frame", col("frame") + 2)
    LcpSpark.writeParquet(LcpSpark.compress(shifted, cfg, batchesPerGroup = 2), dir)
    assert(framesRead(dir, 2, 2) == Seq(2, 3, 4, 5))
    for (i <- Seq(0, 1)) assert(framesRead(dir, 2, i).isEmpty, s"frame $i")
  }

  test("compress rejects a group whose frame indices are not consecutive and distinct") {
    val df = LcpSpark.framesToDf(spark, frames.take(4))
    // Frames {0, 2, 3} and {0, 0, 1}, in one group at batch 4.
    for (bad <- Seq(df.where(col("frame") =!= 1), df.where(col("frame") < 2).union(df.where(col("frame") === 0)))) {
      val e = intercept[SparkException](LcpSpark.compress(bad, cfg, batchesPerGroup = 1).collect())
      val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      assert(causes.exists(_.isInstanceOf[IllegalArgumentException]), e.toString)
    }
  }

  test("batchesPerGroup = 0 fails fast in compress and readFrameBatch") {
    intercept[IllegalArgumentException](LcpSpark.compress(LcpSpark.framesToDf(spark, frames), cfg, batchesPerGroup = 0))
    intercept[IllegalArgumentException](LcpSpark.readFrameBatch(spark, store, cfg, batchesPerGroup = 0, frameIdx = 5))
  }

  test("a group larger than the input holds every frame: batch 16 at 1 << 28 batches per group") {
    // 16 · 2^28 frames per group is 2^32, past Int.
    val big    = LcpConfig(eb = 0.02, batchSize = 16)
    val many   = TestFrames.copper(200, 32)
    val df     = LcpSpark.framesToDf(spark, many)
    val groups = LcpSpark.compress(df, big, batchesPerGroup = 1 << 28).collect()
    assert(groups.map(g => (g.group, g.firstFrame, g.numFrames)).toSeq == Seq((0, 0, 32)))

    val dir = Files.createTempDirectory("lcp-parquet").toString + "/store"
    LcpSpark.writeParquet(LcpSpark.compress(df, big, batchesPerGroup = 1 << 28), dir)
    val rows  = LcpSpark.readFrameBatch(spark, dir, big, batchesPerGroup = 1 << 28, frameIdx = 5)
      .collect().groupBy(_.getInt(0))
    assert(rows.keySet == (0 until 16).toSet, "batch 0 holds frames 0..15")
    val perms = Lcp.compress(many, big).perms
    val slack = big.eb * (1 + 1e-9)
    for ((t, got) <- rows) {
      val ref = many(t).reorder(perms(t))
      assert(got.length == ref.n, s"frame $t")
      got.foreach { r =>
        val s = r.getInt(1)
        assert(math.abs(r.getDouble(2) - ref.x(s)) <= slack && math.abs(r.getDouble(3) - ref.y(s)) <= slack &&
          math.abs(r.getDouble(4) - ref.z(s)) <= slack, s"frame $t particle $s")
      }
    }
  }

  test("distributed compression ratio matches single-node codec within metadata slack") {
    val df     = LcpSpark.framesToDf(spark, frames)
    val groups = LcpSpark.compress(df, cfg, batchesPerGroup = 2).collect()
    val sparkBytes = groups.map(_.blob.length.toLong).sum
    val local = repro.core.Lcp.compress(frames, cfg).archive.compressedSizeBytes
    assert(sparkBytes < local * 1.5, s"spark $sparkBytes vs local $local")
    assert(Metrics.compressionRatio(frames, sparkBytes) > 2.0)
  }
}
