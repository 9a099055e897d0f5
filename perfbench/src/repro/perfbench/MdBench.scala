package repro.perfbench

import java.util.Arrays
import scala.collection.mutable.ArrayBuffer
import repro.core.{Frame, Lcp}
import repro.core.Lcp.{LcpArchive, LcpConfig}
import repro.data.Particles
import repro.metrics.Metrics

/** The md-temporal workload: the local codec, one client thread, closed
  * loop, in a JVM that never starts Spark. Helium (diffuse gas, small
  * per-frame motion): LCP-T wins 63 of 64 frames; p = 1; the §7.4.2
  * micro-trial runs. LcpT, residual IntCoder and temporal-chain decoding
  * carry the work.
  */
object MdBench {
  val Dataset      = "Helium"
  val NumParticles = 40000
  val Frames       = 64
  val Eb           = 1e-2
  val BatchSize    = 16

  /** A round is one compress, one full decompress and `RetrievalsPerRound`
    * batch and frame retrievals each. At least `MinRounds` rounds give 108
    * of each, so the p90 has more than ten samples beyond it. */
  val MinRounds          = 12
  val RetrievalsPerRound = 9

  /** Set-up (generate inputs, build and decode the reference archive, then
    * warm up by retrieving every batch and frame) runs this many times; the
    * median is `setup_s`. */
  val SetupPasses = 3

  val ReplayPasses = 3

  def sameFrame(a: Frame, b: Frame): Boolean =
    Arrays.equals(a.x, b.x) && Arrays.equals(a.y, b.y) && Arrays.equals(a.z, b.z)

  def run(seed: Long, seconds: Double, traced: Boolean, tally: Tally): Outcome = {
    val cfg = LcpConfig(Eb, BatchSize)

    var frames: IndexedSeq[Frame]    = null
    var ref: Lcp.Result              = null
    var refBytes: Array[Byte]        = null
    var refFrames: IndexedSeq[Frame] = null
    val setupS = ArrayBuffer.empty[Double]
    for (_ <- 0 until SetupPasses) tally.op("set-up") {
      val t0    = System.nanoTime()
      val fs    = Particles.byName(Dataset).gen(NumParticles, Frames, seed)
      val res   = Lcp.compress(fs, cfg)
      val bytes = res.archive.toBytes
      val dec   = Lcp.decompressAll(LcpArchive.fromBytes(bytes))
      // Warm-up: every batch and every frame retrieved once.
      val warm  = LcpArchive.fromBytes(bytes)
      for (b <- warm.batches.indices) Lcp.decompressBatch(warm, b)
      for (f <- 0 until warm.numFrames) Lcp.decompressFrame(warm, f)
      setupS += (System.nanoTime() - t0) / 1e9
      val repeatable = refBytes == null || Arrays.equals(bytes, refBytes)
      frames = fs; ref = res; refBytes = bytes; refFrames = dec
      // The §2 contract: |d − d'| ≤ eb for every particle, through perms.
      repeatable && dec.size == fs.size && fs.indices.forall { i =>
        Metrics.withinBound(Metrics.maxAbsError(fs(i), dec(i), res.perms(i)), Eb)
      }
    }
    require(ref != null, "set-up failed")

    val bs       = BatchSize
    val nf       = frames.size
    val nb       = ref.archive.batches.size
    val origSize = Metrics.originalSizeBytes(frames)

    val compressNs, allocBytes, decompressNs = ArrayBuffer.empty[Long]
    val batchNs, frameNs = ArrayBuffer.empty[Long]
    val batchTraced      = ArrayBuffer.empty[Boolean]
    val gc0   = Stats.gcMillis()
    val start = System.nanoTime()
    var round = 0
    var op    = 0L
    var j     = 0
    while (round < MinRounds || (System.nanoTime() - start) / 1e9 < seconds) {
      // A traced run records spans on every other round; the untraced
      // rounds give the tracing overhead.
      Trace.enabled = traced && round % 2 == 1
      op += 1
      tally.op("compress") {
        val a0 = Stats.threadAllocated()
        val t0 = System.nanoTime()
        val bytes = Trace.span("op.compress", op) {
          val res = Trace.span("core.Lcp.compress", op)(Lcp.compress(frames, cfg))
          Trace.span("core.LcpArchive.to_bytes", op)(res.archive.toBytes)
        }
        compressNs += System.nanoTime() - t0
        allocBytes += Stats.threadAllocated() - a0
        Arrays.equals(bytes, refBytes)
      }
      op += 1
      tally.op("decompressAll") {
        val t0 = System.nanoTime()
        val out = Trace.span("op.decompress", op) {
          val a = Trace.span("core.LcpArchive.from_bytes", op)(LcpArchive.fromBytes(refBytes))
          Trace.span("core.Lcp.decompressAll", op)(Lcp.decompressAll(a))
        }
        decompressNs += System.nanoTime() - t0
        out.size == nf && out.indices.forall(i => sameFrame(out(i), refFrames(i)))
      }
      for (_ <- 0 until RetrievalsPerRound) {
        // Batch targets cycle through every batch. Frame targets take every
        // in-batch position once per `bs` retrievals, rotating batches, so
        // chain depth is sampled evenly and every frame once per `bs * nb`.
        val b = j % nb
        op += 1
        tally.op(s"decompressBatch $b") {
          val t0 = System.nanoTime()
          val out = Trace.span("op.batch_retrieval", op) {
            val a = Trace.span("core.LcpArchive.from_bytes", op)(LcpArchive.fromBytes(refBytes))
            Trace.span("core.Lcp.decompressBatch", op)(Lcp.decompressBatch(a, b))
          }
          batchNs += System.nanoTime() - t0
          batchTraced += Trace.enabled
          out.size == math.min(bs, nf - b * bs) && out.indices.forall(j => sameFrame(out(j), refFrames(b * bs + j)))
        }
        val f = ((j / bs + j % bs) % nb) * bs + j % bs
        j += 1
        if (f < nf) {
          op += 1
          tally.op(s"decompressFrame $f") {
            val t0 = System.nanoTime()
            val out = Trace.span("op.frame_retrieval", op) {
              val a = Trace.span("core.LcpArchive.from_bytes", op)(LcpArchive.fromBytes(refBytes))
              Trace.span("core.Lcp.decompressFrame", op)(Lcp.decompressFrame(a, f))
            }
            frameNs += System.nanoTime() - t0
            sameFrame(out, refFrames(f))
          }
        }
      }
      round += 1
    }
    val loopMs = (System.nanoTime() - start) / 1e6
    val gcShare = (Stats.gcMillis() - gc0) / loopMs
    Trace.enabled = false

    def ms(xs: ArrayBuffer[Long]) = xs.map(Stats.nanosToMs)
    val origMB = origSize / 1e6
    val endToEnd = Seq(
      "setup_s"                -> Metric(Stats.median(setupS), "s"),
      "compression_ratio"      -> Metric(origSize.toDouble / refBytes.length, "x"),
      "compress_MBps"          -> Metric(origMB / (Stats.median(ms(compressNs)) / 1e3), "MB/s"),
      "decompress_MBps"        -> Metric(origMB / (Stats.median(ms(decompressNs)) / 1e3), "MB/s"),
      "batch_retrieval_ms_p50" -> Metric(Stats.quantile(ms(batchNs), 0.5), "ms"),
      "batch_retrieval_ms_p90" -> Metric(Stats.quantile(ms(batchNs), 0.9), "ms"),
      "frame_retrieval_ms_p50" -> Metric(Stats.quantile(ms(frameNs), 0.5), "ms"),
      "frame_retrieval_ms_p90" -> Metric(Stats.quantile(ms(frameNs), 0.9), "ms"),
      // Every retrieval parses the whole stored archive.
      "batch_read_MB"          -> Metric(refBytes.length / 1e6, "MB"),
      "compress_alloc_B_per_B" -> Metric(Stats.median(allocBytes.map(_.toDouble)) / origSize, "B/B"))

    val perLayer =
      if (!traced) Seq.empty
      else {
        Trace.enabled = true
        val replay = Replay.run(Seq(Replay.Input(frames, cfg, ref, refFrames)), ReplayPasses, tally)
        Trace.enabled = false
        val tracedBatch   = batchNs.indices.filter(batchTraced).map(i => batchNs(i) / 1e6)
        val untracedBatch = batchNs.indices.filterNot(batchTraced).map(i => batchNs(i) / 1e6)
        replay ++ Seq(
          "jvm.gc_ms_share"                     -> Metric(gcShare, "share"),
          // No Spark layer on the md path.
          "sparkio.LcpSpark.frames_to_df_s"     -> Metric(0.0, "s"),
          "sparkio.LcpSpark.compress_write_s"   -> Metric(0.0, "s"),
          "sparkio.LcpSpark.shuffle_write_bytes" -> Metric(0.0, "B"),
          "sparkio.read.pushed_filters"         -> Metric(0.0, "count"),
          "sparkio.read.files_read"             -> Metric(0.0, "count"),
          "sparkio.read.local_decode_ms"        -> Metric(0.0, "ms"),
          "trace.overhead_share"                ->
            Metric(Stats.median(tracedBatch) / Stats.median(untracedBatch) - 1, "share"))
      }

    val detail = Seq(
      "settings" -> Map("dataset" -> Dataset, "particles" -> NumParticles, "frames" -> Frames,
        "eb" -> Eb, "batch_size" -> BatchSize, "block_size" -> "swept (7.4.1)",
        "eb_scale" -> "Auto (7.4.2)", "clients" -> 1, "loop" -> "closed"),
      "archive_sha256" -> Stats.sha256(refBytes),
      "archive_bytes"  -> refBytes.length,
      "decisions" -> Map("methods" -> ref.methods.mkString, "p" -> ref.archive.p,
        "anchor_eb_scale" -> ref.archive.anchorEbScale, "t_trials" -> ref.tTrials),
      "rounds" -> round, "gc_ms_share" -> gcShare,
      "setup_s_samples" -> setupS,
      "sample_counts" -> Map("compress" -> compressNs.size, "decompress" -> decompressNs.size,
        "batch_retrieval" -> batchNs.size, "frame_retrieval" -> frameNs.size),
      "samples_ms" -> Map("compress" -> ms(compressNs), "decompress" -> ms(decompressNs),
        "batch_retrieval" -> ms(batchNs), "frame_retrieval" -> ms(frameNs)),
      "compress_alloc_bytes" -> allocBytes)
    Outcome(endToEnd, perLayer, detail)
  }
}
