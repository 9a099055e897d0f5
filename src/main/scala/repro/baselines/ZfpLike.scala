package repro.baselines

import repro.coding.{BitReader, BitWriter, Zigzag}
import repro.core.{Frame, Quantizer}

/** ZFP-style baseline: fixed-point block transform coding. Each coordinate
  * array is quantized against the error bound, split into blocks of 4
  * values (ZFP's 1-D block size), and each block is bit-packed at its own
  * width. Single-pass, no entropy model — very fast, but on particle data
  * (no within-block correlation in storage order) block widths stay large,
  * reproducing ZFP's fast-but-poor-ratio position in §8.
  */
object ZfpLike extends FrameWiseCodec {
  override val name = "ZFP"
  private val BlockLen = 4

  override def compressFrame(f: Frame, eb: Double): (Array[Byte], Array[Int]) = {
    val qf = Quantizer.quantizeFrame(f, eb)
    (Quantizer.writeFrame(f.n, eb, Seq(qf.qx, qf.qy, qf.qz).map(encodeDim))(
      Quantizer.writeMins(_, qf.minX, qf.minY, qf.minZ)), null)
  }

  /** Per block of 4: a 6-bit width, then 4 values at that width. Within a
    * block we code deltas from the block's first value (a cheap stand-in
    * for ZFP's decorrelating transform on our integer lattice). */
  private def encodeDim(q: Array[Long]): Array[Byte] = {
    val w = new BitWriter(q.length * 4 + 16)
    var i = 0
    while (i < q.length) {
      val end  = math.min(i + BlockLen, q.length)
      val base = q(i)
      var maxZ = 0L
      var j = i
      while (j < end) { val z = Zigzag.encode(q(j) - base); if (z > maxZ) maxZ = z; j += 1 }
      val width = Zigzag.bitWidth(maxZ)
      w.writeBits(width.toLong, 6)
      // Block base value always at full width (64) — keeps blocks independent.
      w.writeBits(base, 64)
      j = i + 1
      while (j < end) { w.writeBits(Zigzag.encode(q(j) - base), width); j += 1 }
      i = end
    }
    w.toBytes
  }

  private def decodeDim(bytes: Array[Byte], n: Int): Array[Long] = {
    // Every block of up to 4 values takes at least its 6-bit width and
    // 64-bit base, so the section bounds the header's count.
    require((n.toLong + BlockLen - 1) / BlockLen * (6 + 64) <= 8L * bytes.length,
      s"ZFP: $n values in ${bytes.length} bytes")
    val r   = new BitReader(bytes)
    val out = new Array[Long](n)
    var i = 0
    while (i < n) {
      val end   = math.min(i + BlockLen, n)
      val width = r.readBits(6).toInt
      val base  = r.readBits(64)
      out(i) = base
      var j = i + 1
      while (j < end) { out(j) = base + Zigzag.decode(r.readBits(width)); j += 1 }
      i = end
    }
    out
  }

  override def decompressFrame(bytes: Array[Byte]): Frame = {
    val (n, eb, (mx, my, mz), sections) = Quantizer.readFrame(bytes, 3, "ZFP")(Quantizer.readMins(_, "ZFP"))
    val dims = sections.zip(Seq(mx, my, mz)).map { case (section, min) =>
      Quantizer.dequantizeArray(decodeDim(section, n), min, eb)
    }
    Frame(dims(0), dims(1), dims(2))
  }
}
