package repro.baselines

import repro.coding.IntCoder
import repro.core.Quantizer

/** SZ2-style baseline: 1-D Lorenzo prediction (previous reconstructed
  * value) over each coordinate array in storage order, error-bounded
  * residual quantization, Huffman + Zstd.
  *
  * This is the generic mesh-compressor design the paper contrasts with:
  * on particles the storage order carries little spatial correlation, so
  * residuals stay large (§3, §6.1). Order-preserving.
  */
object Sz2Like extends SzFrameCodec {
  override val name = "SZ2"

  override protected def encodeDim(v: Array[Double], eb: Double): Seq[Array[Byte]] = {
    val q = new Array[Long](v.length)
    var pred = 0.0
    var i = 0
    while (i < v.length) {
      q(i) = Quantizer.quantizeResidual(v(i), pred, eb)
      pred = Quantizer.reconResidual(pred, q(i), eb)
      i += 1
    }
    Seq(IntCoder.encode(q, delta = false))
  }

  override protected def decodeDim(arrays: Seq[Array[Long]], eb: Double): Array[Double] = {
    val q = arrays.head
    val out = new Array[Double](q.length)
    var pred = 0.0
    var i = 0
    while (i < q.length) { pred = Quantizer.reconResidual(pred, q(i), eb); out(i) = pred; i += 1 }
    out
  }
}
