package repro.baselines

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import repro.coding.{ByteIO, IntCoder, Zigzag}
import repro.core.{Frame, Quantizer}

/** SZ2-style baseline: 1-D Lorenzo prediction (previous reconstructed
  * value) over each coordinate array in storage order, error-bounded
  * residual quantization, Huffman + Zstd.
  *
  * This is the generic mesh-compressor design the paper contrasts with:
  * on particles the storage order carries little spatial correlation, so
  * residuals stay large (§3, §6.1). Order-preserving.
  */
object Sz2Like extends FrameWiseCodec {
  override val name = "SZ2"

  override def compressFrame(f: Frame, eb: Double): (Array[Byte], Array[Int]) = {
    val out = new ByteArrayOutputStream(f.n + 64)
    Zigzag.writeVarLong(out, f.n.toLong)
    ByteIO.writeDouble(out, eb)
    ByteIO.writeBody(out, Seq(f.x, f.y, f.z).map(dim => IntCoder.encode(lorenzo(dim, eb), delta = false)): _*)
    (out.toByteArray, null)
  }

  private def lorenzo(v: Array[Double], eb: Double): Array[Long] = {
    val q = new Array[Long](v.length)
    var pred = 0.0
    var i = 0
    while (i < v.length) {
      q(i) = Quantizer.quantizeResidual(v(i), pred, eb)
      pred = Quantizer.reconResidual(pred, q(i), eb)
      i += 1
    }
    q
  }

  override def decompressFrame(bytes: Array[Byte]): Frame = {
    val in = new ByteArrayInputStream(bytes)
    val n  = ByteIO.readCount(in, Int.MaxValue, "SZ2 particle count")
    val eb = ByteIO.readDouble(in)
    val dims = ByteIO.readBody(in, 3).map { section =>
      val q   = IntCoder.decode(new ByteArrayInputStream(section), n)
      require(q.length == n, "length mismatch")
      val out = new Array[Double](n)
      var pred = 0.0
      var i = 0
      while (i < n) { pred = Quantizer.reconResidual(pred, q(i), eb); out(i) = pred; i += 1 }
      out
    }
    Frame(dims(0), dims(1), dims(2))
  }
}
