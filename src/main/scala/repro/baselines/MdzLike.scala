package repro.baselines

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import repro.coding.{ByteIO, Dictionary, IntCoder, Zigzag}
import repro.core.{Frame, Quantizer}

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
  * compressed spatially (no cross-batch anchors). Order-preserving.
  */
object MdzLike extends ParticleCodec {
  override val name = "MDZ"

  override def compress(frames: IndexedSeq[Frame], eb: Double, batchSize: Int): Compressed = {
    val out = new ByteArrayOutputStream()
    val batches = frames.grouped(batchSize).toIndexedSeq
    Zigzag.writeVarLong(out, batches.size.toLong)
    batches.foreach { batch =>
      val head      = batch.head
      val headBytes = Sz2Like.compressFrame(head, eb)._1
      val reference = Sz2Like.decompressFrame(headBytes)
      val uniformN  = batch.forall(_.n == head.n) && head.n > 0
      // Batch-level choice, probed on the second frame only.
      val temporalMode = uniformN && batch.size >= 2 && {
        val t = temporalFrame(batch(1), reference, eb)
        val s = Sz2Like.compressFrame(batch(1), eb)._1
        t.length < s.length
      }
      out.write(if (temporalMode) 1 else 0)
      Zigzag.writeVarLong(out, batch.size.toLong)
      ByteIO.writeSection(out, headBytes)
      batch.drop(1).foreach { f =>
        if (temporalMode) ByteIO.writeSection(out, temporalFrame(f, reference, eb))
        else ByteIO.writeSection(out, Sz2Like.compressFrame(f, eb)._1)
      }
    }
    Compressed(out.toByteArray, frames.map(_ => null))
  }

  private def temporalFrame(f: Frame, prev: Frame, eb: Double): Array[Byte] = {
    val out = new ByteArrayOutputStream(f.n + 64)
    Zigzag.writeVarLong(out, f.n.toLong)
    ByteIO.writeDouble(out, eb)
    val body = new ByteArrayOutputStream(f.n + 64)
    Seq((f.x, prev.x), (f.y, prev.y), (f.z, prev.z)).foreach { case (cur, pv) =>
      val q = new Array[Long](cur.length)
      var i = 0
      while (i < cur.length) { q(i) = Quantizer.quantizeResidual(cur(i), pv(i), eb); i += 1 }
      ByteIO.writeSection(body, IntCoder.encode(q, delta = false))
    }
    ByteIO.writeSection(out, Dictionary.compress(body.toByteArray))
    out.toByteArray
  }

  private def decodeTemporal(bytes: Array[Byte], prev: Frame): Frame = {
    val in = new ByteArrayInputStream(bytes)
    val n  = Zigzag.readVarLong(in).toInt
    require(n == prev.n, "temporal frame length mismatch")
    val eb = ByteIO.readDouble(in)
    val body = new ByteArrayInputStream(Dictionary.decompress(ByteIO.readSection(in)))
    val dims = Seq(prev.x, prev.y, prev.z).map { pv =>
      val q   = IntCoder.decode(new ByteArrayInputStream(ByteIO.readSection(body)))
      val out = new Array[Double](n)
      var i = 0
      while (i < n) { out(i) = Quantizer.reconResidual(pv(i), q(i), eb); i += 1 }
      out
    }
    Frame(dims(0), dims(1), dims(2))
  }

  override def decompress(payload: Array[Byte]): IndexedSeq[Frame] = {
    val in = new ByteArrayInputStream(payload)
    val nb = Zigzag.readVarLong(in).toInt
    (0 until nb).flatMap { _ =>
      val temporalMode = in.read() == 1
      val count        = Zigzag.readVarLong(in).toInt
      var reference: Frame = null
      (0 until count).map { i =>
        val bytes = ByteIO.readSection(in)
        if (i == 0) { reference = Sz2Like.decompressFrame(bytes); reference }
        else if (!temporalMode) Sz2Like.decompressFrame(bytes)
        else decodeTemporal(bytes, reference)
      }
    }
  }
}
