package repro.baselines

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import repro.coding.{ByteIO, Zigzag}
import repro.core.{Fork, Frame, LcpT, Quantizer}

/** MDZ-style baseline: molecular-dynamics compressor with *batch-level*
  * method selection — the paper's key contrast with LCP's per-frame FSM
  * (§7, §8.1.3). Each batch picks once between time-based prediction and
  * space-based prediction (1-D Lorenzo), by trial-compressing the batch's
  * second frame both ways. Time-based prediction targets the batch-head
  * *reference frame* (not the chained previous frame): MDZ models atoms as
  * vibrating around near-static sites, which also gives intra-batch random
  * access — and is exactly why it degrades on diffusive data, where drift
  * from the reference accumulates over the batch (LCP-T's chained
  * prediction does not). The first frame of every batch is always
  * compressed spatially (no cross-batch anchors). A temporal frame is an
  * LCP-T frame predicted from the reference. Order-preserving. The batches
  * compress and decompress concurrently ([[Fork]]).
  */
object MdzLike extends ParticleCodec {
  override val name = "MDZ"

  override def compress(frames: IndexedSeq[Frame], eb: Double, batchSize: Int): Compressed = {
    Quantizer.requireBound(eb, s"$name error bound")
    val coded = Fork.map(frames.grouped(batchSize).toSeq) { batch =>
      val head      = batch.head
      val headBytes = Sz2Like.compressFrame(head, eb)._1
      val reference = Sz2Like.decompressFrame(headBytes)
      val uniformN  = batch.forall(_.n == head.n) && head.n > 0
      def temporal(f: Frame): Array[Byte] = LcpT.compress(f, reference, eb).bytes
      def spatial(f: Frame): Array[Byte]  = Sz2Like.compressFrame(f, eb)._1
      // Batch-level choice, probed on the second frame only.
      val temporalMode = uniformN && batch.size >= 2 && temporal(batch(1)).length < spatial(batch(1)).length
      (temporalMode, headBytes +: batch.tail.map(if (temporalMode) temporal else spatial))
    }
    val out = new ByteArrayOutputStream()
    Zigzag.writeVarLong(out, coded.size.toLong)
    coded.foreach { case (temporalMode, sections) =>
      out.write(if (temporalMode) 1 else 0)
      ByteIO.writeSections(out, sections)
    }
    Compressed(out.toByteArray, frames.map(_ => null))
  }

  override def decompress(payload: Array[Byte]): IndexedSeq[Frame] = {
    val in = new ByteArrayInputStream(payload)
    // Every batch takes at least its mode byte.
    val batches = IndexedSeq.tabulate(ByteIO.readCount(in, in.available().toLong, "MDZ batch count")) { b =>
      val mode     = in.read()
      require(mode == 0 || mode == 1, s"MDZ batch $b: mode byte $mode is neither 0 (spatial) nor 1 (temporal)")
      val sections = ByteIO.readSections(in)
      require(sections.nonEmpty, s"MDZ batch $b: empty batch")
      (mode == 1, sections)
    }
    ByteIO.requireEnd(in, "the last MDZ batch")
    Fork.map(batches) { case (temporalMode, sections) =>
      val reference = Sz2Like.decompressFrame(sections.head)
      reference +: sections.tail.map(b => if (temporalMode) LcpT.decompress(b, reference) else Sz2Like.decompressFrame(b))
    }.flatten
  }
}
