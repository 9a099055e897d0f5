package repro.perfbench

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import java.util.Arrays
import scala.collection.mutable
import repro.coding.{ByteIO, Dictionary, IntCoder}
import repro.core._
import repro.core.Lcp.{Forced, LcpArchive, LcpConfig, Off}

/** Per-layer replay of compressed archives for the traced run.
  *
  * The codec is not instrumented, so its layers are timed by calling their
  * public functions from outside, on the same inputs and following each
  * archive's recorded decisions: the `FrameEntry` S/T flags, `p`, the anchor
  * eb scale and the LCP-FSM trial schedule (the FSM is deterministic, so
  * driving a fresh `LcpFsm` with the recorded outcomes reproduces which
  * frames ran an LCP-T trial). Each LCP-S / LCP-T call is timed whole, and
  * its stages (quantize, group, `IntCoder`, Zstd) are then replayed one by
  * one. Every whole call must reproduce the archive's stored frame, and the
  * staged Zstd payload, written as a section, must be the stored frame's
  * tail; a replay that does not measures a different program, so a mismatch
  * fails the run. The frame headers are left to the codec: the decode stages
  * start from the staged payload.
  */
object Replay {
  final case class Input(frames: IndexedSeq[Frame], cfg: LcpConfig, result: Lcp.Result,
                         decoded: IndexedSeq[Frame])

  /** Timed per-layer metrics: each is the total over one pass across every
    * archive of the workload; the median over passes is reported. */
  val TimedMetrics: Seq[String] = Seq(
    "core.BlockSizeOpt.sweep_ms", "core.EbScale.probe_ms", "core.EbScale.trial_ms",
    "core.Quantizer.quantize_ms", "core.BlockIndex.group_ms", "coding.IntCoder.encode_ms",
    "coding.Dictionary.zstd_compress_ms", "core.LcpS.compress_ms", "core.LcpT.compress_ms",
    "core.Frame.reorder_ms", "core.LcpS.decompress_ms", "core.LcpT.decompress_ms",
    "coding.IntCoder.decode_ms", "coding.Dictionary.zstd_decompress_ms",
    "core.LcpArchive.from_bytes_ms", "core.LcpArchive.to_bytes_ms")

  val Sections: Seq[String] = Seq("block_ids", "counts", "rel_pos", "residuals")

  private final class Acc {
    val ns     = mutable.Map.empty[String, Long].withDefaultValue(0L)
    val counts = mutable.Map.empty[String, Long].withDefaultValue(0L)
  }

  /** Span named after the metric (without `_ms`); its time is added to the
    * pass's total for that metric. */
  private def timed[T](acc: Acc, metric: String, op: Long)(body: => T): T =
    Trace.span(metric.stripSuffix("_ms"), op) {
      val t0 = System.nanoTime()
      val r  = body
      acc.ns(metric) += System.nanoTime() - t0
      r
    }

  def run(inputs: Seq[Input], passes: Int, tally: Tally): Seq[(String, Metric)] = {
    val accs = (0 until passes).map { pass =>
      val acc = new Acc
      inputs.zipWithIndex.foreach { case (in, k) =>
        val op = 1000000L * (pass + 1) + k
        val payloads = Trace.span("replay.compress", op)(replayCompress(in, acc, op, tally, counting = pass == 0))
        Trace.span("replay.decompress", op)(replayDecompress(in, payloads, acc, op, tally))
        tally.op("replay archive (de)serialization") {
          val bytes = timed(acc, "core.LcpArchive.to_bytes_ms", op)(in.result.archive.toBytes)
          val back  = timed(acc, "core.LcpArchive.from_bytes_ms", op)(LcpArchive.fromBytes(bytes))
          Arrays.equals(back.toBytes, bytes)
        }
      }
      acc
    }
    val counts  = accs.head.counts
    val archives = inputs.map(_.result.archive)
    val sFrames  = archives.map(_.entries.count(!_.temporal)).sum
    val tFrames  = archives.map(_.entries.count(_.temporal)).sum
    val tTrials  = inputs.map(_.result.tTrials).sum
    val calls    = counts("intcoder.calls")

    val timings = TimedMetrics.map(k => k -> Metric(Stats.median(accs.map(_.ns(k) / 1e6)), "ms"))
    val layerCounts = Seq(
      "core.BlockSizeOpt.candidates" -> Metric(counts("core.BlockSizeOpt.candidates").toDouble, "count"),
      "core.Lcp.t_trials"            -> Metric(tTrials.toDouble, "count"),
      "core.Lcp.t_trial_win_share"   -> Metric(if (tTrials == 0) 0.0 else tFrames.toDouble / tTrials, "share"),
      "core.Lcp.s_frames"            -> Metric(sFrames.toDouble, "count"),
      "core.Lcp.t_frames"            -> Metric(tFrames.toDouble, "count"),
      "core.BlockIndex.blocks"       -> Metric(counts("core.BlockIndex.blocks").toDouble, "count"),
      "coding.IntCoder.huffman_share" ->
        Metric(if (calls == 0) 0.0 else counts("intcoder.huffman").toDouble / calls, "share"),
      "core.LcpArchive.anchor_bytes"  -> Metric(archives.map(_.anchors.map(_.length.toLong).sum).sum.toDouble, "B"),
      "core.LcpArchive.payload_bytes" ->
        Metric(archives.map(_.batches.map(_.map(_.length.toLong).sum).sum).sum.toDouble, "B"))
    val sections = Sections.flatMap { s =>
      Seq(s"core.LcpArchive.${s}_bytes", s"core.LcpArchive.${s}_zstd_bytes").map(k => k -> Metric(counts(k).toDouble, "B"))
    }
    timings ++ layerCounts ++ sections
  }

  // ------------------------------------------------------------ compression

  /** Replays the compression of every frame; returns each frame's staged
    * Zstd payload. */
  private def replayCompress(in: Input, acc: Acc, op: Long, tally: Tally, counting: Boolean): Array[Array[Byte]] = {
    val a      = in.result.archive
    val frames = in.frames
    val (eb, bs, p, scale) = (a.eb, a.batchSize, a.p, a.anchorEbScale)

    tally.op("replay block-size sweep") {
      val (bestP, sizes) = timed(acc, "core.BlockSizeOpt.sweep_ms", op)(BlockSizeOpt.bestBlockSize(frames.head, eb))
      acc.counts("core.BlockSizeOpt.candidates") += sizes.size
      Trace.count("core.BlockSizeOpt.candidates", sizes.size)
      bestP == p
    }
    tally.op("replay eb-scale decision") {
      val batches = (frames.size + bs - 1) / bs
      val scaled = batches >= 3 &&
        timed(acc, "core.EbScale.probe_ms", op)(EbScale.highTemporalCorrelation(frames, eb)) &&
        timed(acc, "core.EbScale.trial_ms", op)(scalingTrial(frames, in.cfg, p))
      (if (scaled) EbScale.Factor else 1.0) == scale
    }

    val fsm = new LcpFsm
    var prevRecon: Frame       = null
    var prevPerm: Array[Int]   = null
    var anchorRecon: Frame     = null
    var anchorPerm: Array[Int] = null
    var lastSSize              = -1L
    var trials                 = 0
    val payloads               = new Array[Array[Byte]](frames.size)
    for (i <- frames.indices) tally.op(s"replay compress frame $i") {
      val f      = frames(i)
      val e      = a.entries(i)
      val first  = i % bs == 0
      val stored = if (e.inAnchor) a.anchors(e.slot) else a.batches(i / bs)(e.slot)
      val basisRecon = if (first) anchorRecon else prevRecon
      val basisPerm  = if (first) anchorPerm else prevPerm
      val canTemporal = basisRecon != null && basisRecon.n == f.n && f.n > 0
      val compare     = canTemporal && fsm.nextAction() == LcpFsm.Compare
      var ok = true
      var tSize = -1L
      if (compare) {
        trials += 1
        val aligned = timed(acc, "core.Frame.reorder_ms", op)(f.reorder(basisPerm))
        val t       = timed(acc, "core.LcpT.compress_ms", op)(LcpT.compress(aligned, basisRecon, eb))
        val staged  = stagesT(aligned, basisRecon, eb, acc, op, counting && e.temporal)
        tSize = t.bytes.length
        if (e.temporal) {
          ok = Arrays.equals(t.bytes, stored) && endsWithSection(stored, staged) && lastSSize > tSize
          payloads(i) = staged
          prevRecon = t.recon; prevPerm = basisPerm
        }
      }
      if (!e.temporal) {
        val sEb    = if (first) eb / scale else eb
        val s      = timed(acc, "core.LcpS.compress_ms", op)(LcpS.compress(f, sEb, p))
        val staged = stagesS(f, sEb, p, acc, op, counting)
        ok = Arrays.equals(s.bytes, stored) && endsWithSection(stored, staged) &&
          (!compare || (if (lastSSize >= 0) lastSSize else s.bytes.length.toLong) <= tSize)
        lastSSize = s.bytes.length
        payloads(i) = staged
        if (first) { anchorRecon = s.recon; anchorPerm = s.perm }
        prevRecon = s.recon; prevPerm = s.perm
      } else ok = ok && compare
      fsm.observe(compared = compare, spatialWon = !e.temporal)
      ok
    }
    tally.op("replay trial count")(trials == in.result.tTrials)
    payloads
  }

  /** `frame` ends with `payload` written as a section. */
  private def endsWithSection(frame: Array[Byte], payload: Array[Byte]): Boolean = {
    val section = new ByteArrayOutputStream(payload.length + 8)
    ByteIO.writeSection(section, payload)
    val tail = section.toByteArray
    tail.length <= frame.length &&
      Arrays.equals(frame, frame.length - tail.length, frame.length, tail, 0, tail.length)
  }

  /** Mirrors the §7.4.2 micro-trial of `Lcp.compress` (a 3-batch prefix,
    * particle-sampled to 4096, compressed with and without the anchor
    * scale) through the public `Lcp.compress`. */
  private def scalingTrial(frames: IndexedSeq[Frame], cfg: LcpConfig, p: Int): Boolean = {
    val prefix = frames.take(3 * cfg.batchSize)
    val n      = prefix.head.n
    if (n == 0 || prefix.exists(_.n != n)) return false
    val sampled =
      if (n <= 4096) prefix
      else {
        val stride = n.toDouble / 4096
        val idx    = Array.tabulate(4096)(i => (i * stride).toInt)
        prefix.map(_.reorder(idx))
      }
    val base   = Lcp.compress(sampled, cfg.copy(ebScaleMode = Off, blockSizeP = Some(p)))
    val scaled = Lcp.compress(sampled, cfg.copy(ebScaleMode = Forced(EbScale.Factor), blockSizeP = Some(p)))
    scaled.archive.compressedSizeBytes < base.archive.compressedSizeBytes
  }

  /** Adds a stored section's sizes to the pass's counts and to the open
    * `*.stages` span. */
  private def countSection(acc: Acc, section: String, encoded: Array[Byte]): Unit = {
    // The codec runs Zstd once over all sections of a frame; this is the
    // section's size when Zstd-compressed on its own.
    val counts = Seq(
      s"core.LcpArchive.${section}_bytes"      -> encoded.length.toLong,
      s"core.LcpArchive.${section}_zstd_bytes" -> Dictionary.compress(encoded).length.toLong,
      "intcoder.calls"                         -> 1L,
      "intcoder.huffman"                       -> (if ((encoded(0) & 2) != 0) 1L else 0L))
    counts.foreach { case (k, v) => acc.counts(k) += v; Trace.count(k, v) }
  }

  /** LCP-S stages; returns the frame's Zstd payload. */
  private def stagesS(f: Frame, eb: Double, p: Int, acc: Acc, op: Long, counting: Boolean): Array[Byte] =
    Trace.span("core.LcpS.compress.stages", op) {
      val qf = timed(acc, "core.Quantizer.quantize_ms", op)(Quantizer.quantizeFrame(f, eb))
      val g  = timed(acc, "core.BlockIndex.group_ms", op)(BlockIndex.group(qf, p))
      if (counting) {
        acc.counts("core.BlockIndex.blocks") += g.blockIds.length
        Trace.count("core.BlockIndex.blocks", g.blockIds.length)
      }
      val body = new ByteArrayOutputStream(f.n * 2 + 64)
      Seq("block_ids" -> g.blockIds, "counts" -> g.counts,
          "rel_pos" -> g.relX, "rel_pos" -> g.relY, "rel_pos" -> g.relZ).foreach { case (section, values) =>
        val enc = timed(acc, "coding.IntCoder.encode_ms", op)(IntCoder.encode(values))
        if (counting) countSection(acc, section, enc)
        ByteIO.writeSection(body, enc)
      }
      timed(acc, "coding.Dictionary.zstd_compress_ms", op)(Dictionary.compress(body.toByteArray))
    }

  /** LCP-T stages (residual quantization, `IntCoder`, Zstd); returns the
    * frame's Zstd payload. */
  private def stagesT(aligned: Frame, prev: Frame, eb: Double, acc: Acc, op: Long, counting: Boolean): Array[Byte] =
    Trace.span("core.LcpT.compress.stages", op) {
      val body = new ByteArrayOutputStream(aligned.n + 64)
      Seq((aligned.x, prev.x), (aligned.y, prev.y), (aligned.z, prev.z)).foreach { case (cur, pred) =>
        val q = new Array[Long](cur.length)
        var i = 0
        while (i < cur.length) { q(i) = Quantizer.quantizeResidual(cur(i), pred(i), eb); i += 1 }
        val enc = timed(acc, "coding.IntCoder.encode_ms", op)(IntCoder.encode(q, delta = false))
        if (counting) countSection(acc, "residuals", enc)
        ByteIO.writeSection(body, enc)
      }
      timed(acc, "coding.Dictionary.zstd_compress_ms", op)(Dictionary.compress(body.toByteArray))
    }

  // ---------------------------------------------------------- decompression

  /** Decodes every batch in `Lcp.decompressAll`'s order (a batch-head
    * temporal frame decodes its anchor first) and checks each frame
    * against the reference decode. The stages decode each frame's staged
    * payload, which the compression replay matched with the stored tail. */
  private def replayDecompress(in: Input, payloads: Array[Array[Byte]], acc: Acc, op: Long, tally: Tally): Unit = {
    val a  = in.result.archive
    val bs = a.batchSize
    // The frame whose LCP-S bytes fill each anchor slot.
    val anchorFrame = a.entries.indices.filter(a.entries(_).inAnchor).map(i => a.entries(i).slot -> i).toMap
    def decodeS(i: Int, bytes: Array[Byte]): Frame = {
      val f = timed(acc, "core.LcpS.decompress_ms", op)(LcpS.decompress(bytes))
      Trace.span("core.LcpS.decompress.stages", op)(decodeSections(payloads(i), 5, acc, op))
      f
    }
    a.batches.indices.foreach { b =>
      val start = b * bs
      var prev: Frame = null
      for (i <- start until math.min(start + bs, a.numFrames)) tally.op(s"replay decompress frame $i") {
        val e = a.entries(i)
        val out =
          if (!e.temporal) decodeS(i, if (e.inAnchor) a.anchors(e.slot) else a.batches(b)(e.slot))
          else {
            val basis = if (i == start) decodeS(anchorFrame(e.anchorRef), a.anchors(e.anchorRef)) else prev
            val f     = timed(acc, "core.LcpT.decompress_ms", op)(LcpT.decompress(a.batches(b)(e.slot), basis))
            Trace.span("core.LcpT.decompress.stages", op)(decodeSections(payloads(i), 3, acc, op))
            f
          }
        prev = out
        MdBench.sameFrame(out, in.decoded(i))
      }
    }
  }

  private def decodeSections(zstd: Array[Byte], sections: Int, acc: Acc, op: Long): Unit = {
    val body = new ByteArrayInputStream(timed(acc, "coding.Dictionary.zstd_decompress_ms", op)(Dictionary.decompress(zstd)))
    for (_ <- 0 until sections) {
      val section = ByteIO.readSection(body)
      timed(acc, "coding.IntCoder.decode_ms", op)(IntCoder.decode(new ByteArrayInputStream(section)))
    }
  }
}
