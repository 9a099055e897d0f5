package repro.baselines

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import repro.coding.{ByteIO, IntCoder, Zigzag}
import repro.core.{Frame, Quantizer}

/** SZ3-style baseline: multi-level interpolation prediction along the
  * storage axis (coarse anchor points first, then midpoints predicted by
  * linear interpolation of already-reconstructed neighbours), error-bounded
  * residual quantization, Huffman + Zstd.
  *
  * Interpolation beats Lorenzo on smooth meshes (§8.1.3) but, like SZ2,
  * sees little structure in particle storage order. Order-preserving.
  */
object Sz3Like extends FrameWiseCodec {
  override val name = "SZ3"

  override def compressFrame(f: Frame, eb: Double): (Array[Byte], Array[Int]) = {
    val out = new ByteArrayOutputStream(f.n + 64)
    Zigzag.writeVarLong(out, f.n.toLong)
    ByteIO.writeDouble(out, eb)
    ByteIO.writeBody(out, Seq(f.x, f.y, f.z).map(dim => IntCoder.encode(encodeDim(dim, eb), delta = false)): _*)
    (out.toByteArray, null)
  }

  /** Quantization indices in the fixed multi-level processing order; the
    * decoder replays the identical order. */
  private def encodeDim(v: Array[Double], eb: Double): Array[Long] = {
    val n = v.length
    if (n == 0) return Array.emptyLongArray
    val recon = new Array[Double](n)
    val q     = new Array[Long](n)
    var pos   = 0
    // Anchor level: multiples of the top stride, Lorenzo-chained.
    val top = topStride(n)
    var pred = 0.0
    var i = 0
    while (i < n) {
      q(pos) = Quantizer.quantizeResidual(v(i), pred, eb)
      recon(i) = Quantizer.reconResidual(pred, q(pos), eb)
      pred = recon(i)
      pos += 1
      i += top
    }
    // Refinement levels: midpoints between reconstructed stride-s anchors.
    var s = top
    while (s >= 2) {
      val half = s / 2
      var j = half
      while (j < n) {
        val p = if (j + half < n) (recon(j - half) + recon(j + half)) / 2 else recon(j - half)
        q(pos) = Quantizer.quantizeResidual(v(j), p, eb)
        recon(j) = Quantizer.reconResidual(p, q(pos), eb)
        pos += 1
        j += s
      }
      s = half
    }
    java.util.Arrays.copyOf(q, pos)
  }

  private def topStride(n: Int): Int =
    if (n <= 1) 1 else math.min(Integer.highestOneBit(n - 1), 1 << 14)

  override def decompressFrame(bytes: Array[Byte]): Frame = {
    val in = new ByteArrayInputStream(bytes)
    val n  = ByteIO.readCount(in, Int.MaxValue, "SZ3 particle count")
    val eb = ByteIO.readDouble(in)
    val dims = ByteIO.readBody(in, 3).map { section =>
      val q = IntCoder.decode(new ByteArrayInputStream(section), n)
      // One index per value, so the decoded array bounds the header's count.
      require(q.length == n, s"SZ3: ${q.length} indices for $n particles")
      decodeDim(q, n, eb)
    }
    Frame(dims(0), dims(1), dims(2))
  }

  private def decodeDim(q: Array[Long], n: Int, eb: Double): Array[Double] = {
    if (n == 0) return Array.emptyDoubleArray
    val recon = new Array[Double](n)
    var pos   = 0
    val top   = topStride(n)
    var pred  = 0.0
    var i = 0
    while (i < n) {
      recon(i) = Quantizer.reconResidual(pred, q(pos), eb)
      pred = recon(i)
      pos += 1
      i += top
    }
    var s = top
    while (s >= 2) {
      val half = s / 2
      var j = half
      while (j < n) {
        val p = if (j + half < n) (recon(j - half) + recon(j + half)) / 2 else recon(j - half)
        recon(j) = Quantizer.reconResidual(p, q(pos), eb)
        pos += 1
        j += s
      }
      s = half
    }
    recon
  }
}
