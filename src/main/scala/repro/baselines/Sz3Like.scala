package repro.baselines

import repro.coding.IntCoder
import repro.core.Quantizer

/** SZ3-style baseline: multi-level interpolation prediction along the
  * storage axis (coarse anchor points first, then midpoints predicted by
  * linear interpolation of already-reconstructed neighbours), error-bounded
  * residual quantization, Huffman + Zstd.
  *
  * Interpolation beats Lorenzo on smooth meshes (§8.1.3) but, like SZ2,
  * sees little structure in particle storage order. Order-preserving.
  */
object Sz3Like extends SzFrameCodec {
  override val name = "SZ3"

  override protected def encodeDim(v: Array[Double], eb: Double): Seq[Array[Byte]] = {
    val q   = new Array[Long](v.length)
    var pos = 0
    interpolate(v.length, { (i, pred) =>
      val k = Quantizer.quantizeResidual(v(i), pred, eb)
      q(pos) = k
      pos += 1
      Quantizer.reconResidual(pred, k, eb)
    })
    Seq(IntCoder.encode(q, delta = false))
  }

  override protected def decodeDim(arrays: Seq[Array[Long]], eb: Double): Array[Double] = {
    val q = arrays.head
    var pos = 0
    interpolate(q.length, { (_, pred) =>
      val r = Quantizer.reconResidual(pred, q(pos), eb)
      pos += 1
      r
    })
  }

  /** The fixed multi-level processing order, which encoder and decoder
    * share: `visit(i, pred)` is called once per index and returns its
    * reconstruction; the k-th call codes the k-th quantization index.
    * Returns the reconstructed array. */
  private def interpolate(n: Int, visit: (Int, Double) => Double): Array[Double] = {
    val recon = new Array[Double](n)
    // Anchor level: multiples of the top stride, Lorenzo-chained.
    val top  = if (n <= 1) 1 else math.min(Integer.highestOneBit(n - 1), 1 << 14)
    var pred = 0.0
    var i = 0
    while (i < n) { pred = visit(i, pred); recon(i) = pred; i += top }
    // Refinement levels: midpoints between reconstructed stride-s anchors.
    var s = top
    while (s >= 2) {
      val half = s / 2
      var j = half
      while (j < n) {
        recon(j) = visit(j, if (j + half < n) (recon(j - half) + recon(j + half)) / 2 else recon(j - half))
        j += s
      }
      s = half
    }
    recon
  }
}
