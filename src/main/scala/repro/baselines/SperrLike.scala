package repro.baselines

import repro.coding.IntCoder
import repro.core.Quantizer

/** SPERR-style baseline: multi-level orthonormal Haar wavelet transform on
  * each coordinate array, uniform coefficient quantization, then — like
  * SPERR — a *correction pass*: the compressor reconstructs its own output,
  * finds samples whose error exceeds the bound, and stores sparse outlier
  * corrections. The transform + double reconstruction make it the paper's
  * slowest codec in Figs. 16–18. Order-preserving.
  */
object SperrLike extends SzFrameCodec {
  override val name = "SPERR"

  /** Coefficient indices, correction positions and correction indices. */
  override protected def arraysPerDim = 3

  override protected def encodeDim(v: Array[Double], eb: Double): Seq[Array[Byte]] = {
    val n = v.length
    val coeffs = v.clone()
    forwardHaar(coeffs)
    // Uniform quantization of coefficients at step eb (conservative; the
    // correction pass repairs what leaks past the bound).
    val q = new Array[Long](n)
    var i = 0
    while (i < n) { q(i) = Math.round(coeffs(i) / eb); i += 1 }
    val rec = reconstruct(q, eb)
    val corrIdx = scala.collection.mutable.ArrayBuffer.empty[Long]
    val corrQ   = scala.collection.mutable.ArrayBuffer.empty[Long]
    i = 0
    while (i < n) {
      if (math.abs(v(i) - rec(i)) > eb) {
        val qc = Quantizer.quantizeResidual(v(i), rec(i), eb)
        corrIdx += i.toLong
        corrQ += qc
      }
      i += 1
    }
    Seq(IntCoder.encode(q, delta = false), IntCoder.encode(corrIdx.toArray, delta = true),
      IntCoder.encode(corrQ.toArray, delta = false))
  }

  override protected def decodeDim(arrays: Seq[Array[Long]], eb: Double): Array[Double] = {
    val (q, corrIdx, corrQ) = (arrays(0), arrays(1), arrays(2))
    val n = q.length
    require(corrQ.length == corrIdx.length, "SPERR: correction arrays disagree")
    val rec = reconstruct(q, eb)
    var i = 0
    while (i < corrIdx.length) {
      require(corrIdx(i) >= 0 && corrIdx(i) < n, s"SPERR: correction position ${corrIdx(i)} outside $n particles")
      val j = corrIdx(i).toInt
      rec(j) = Quantizer.reconResidual(rec(j), corrQ(i), eb)
      i += 1
    }
    rec
  }

  /** `q` dequantized at step `eb` and inverse-transformed: the decoder's
    * rebuild before corrections, on which the encoder checks its bound. */
  private def reconstruct(q: Array[Long], eb: Double): Array[Double] = {
    val rec = new Array[Double](q.length)
    var i = 0
    while (i < q.length) { rec(i) = q(i) * eb; i += 1 }
    inverseHaar(rec)
    rec
  }

  private val Sqrt2 = math.sqrt(2.0)

  /** In-place multi-level orthonormal Haar; odd tails pass through. */
  private[baselines] def forwardHaar(a: Array[Double]): Unit = {
    var len = a.length
    val tmp = new Array[Double](a.length)
    while (len >= 2) {
      val half = len / 2
      var i = 0
      while (i < half) {
        val s = (a(2 * i) + a(2 * i + 1)) / Sqrt2
        val d = (a(2 * i) - a(2 * i + 1)) / Sqrt2
        tmp(i) = s
        tmp(half + i) = d
        i += 1
      }
      if (len % 2 == 1) tmp(len - 1) = a(len - 1)
      System.arraycopy(tmp, 0, a, 0, len)
      len = half
    }
  }

  /** Inverse of [[forwardHaar]]. */
  private[baselines] def inverseHaar(a: Array[Double]): Unit = {
    val n = a.length
    if (n < 2) return
    // Rebuild the level-length chain bottom-up.
    var lengths = List.empty[Int]
    var len = n
    while (len >= 2) { lengths = len :: lengths; len = len / 2 }
    val tmp = new Array[Double](n)
    lengths.foreach { l =>
      val half = l / 2
      var i = 0
      while (i < half) {
        tmp(2 * i) = (a(i) + a(half + i)) / Sqrt2
        tmp(2 * i + 1) = (a(i) - a(half + i)) / Sqrt2
        i += 1
      }
      if (l % 2 == 1) tmp(l - 1) = a(l - 1)
      System.arraycopy(tmp, 0, a, 0, l)
    }
  }
}
