package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, InputStream}
import repro.coding.{ByteIO, Zigzag}

/** Error-bound-aware quantization (§6.1, Eq. 5):
  *
  *   q(d)  = floor((d - min) / (2·eb))
  *   d'    = (2·q + 1)·eb + min
  *
  * guaranteeing |d − d'| ≤ eb. Floating-point rounding in the division can
  * push the computed bin off by one at bin edges, so after the floor we
  * nudge q until the reconstruction provably satisfies the bound — the
  * bound is a hard contract (Eq. 2), not a best effort.
  */
object Quantizer {

  /** Quantize one value. The floor bin is checked against its neighbours
    * and the lowest-reconstruction-error bin wins, clamped to q >= 0 (d is
    * never below min, so a negative bin can only appear through rounding
    * noise and never improves the true error). The result satisfies
    * |d − d'| ≤ eb up to floating-point rounding of d' itself. */
  @inline def quantize(d: Double, min: Double, eb: Double): Long = {
    val q0 = math.max(0L, math.floor((d - min) / (2.0 * eb)).toLong)
    var best = q0
    var bestErr = math.abs(dequantize(q0, min, eb) - d)
    if (bestErr > eb) {
      var c = math.max(0L, q0 - 1)
      while (c <= q0 + 1) {
        val e = math.abs(dequantize(c, min, eb) - d)
        if (e < bestErr) { best = c; bestErr = e }
        c += 1
      }
    }
    best
  }

  /** Reconstruct the bin-centre value for bin `q`. */
  @inline def dequantize(q: Long, min: Double, eb: Double): Double =
    (2.0 * q + 1.0) * eb + min

  /** Error-bound-aware residual quantization: code `v` in 2·eb bins
    * *centred on a prediction* (LCP-T §7.1, and the SZ-family temporal
    * coders). Centring on the prediction instead of the absolute Eq. 5
    * grid avoids bin-edge flips when motion ≪ eb, which would otherwise
    * double the entropy of near-zero difference arrays. Reconstruction is
    * `reconResidual(pred, q, eb)` with |v − recon| ≤ eb (fp-edge
    * corrected). */
  @inline def quantizeResidual(v: Double, pred: Double, eb: Double): Long = {
    var q = Math.round((v - pred) / (2.0 * eb))
    val r = reconResidual(pred, q, eb)
    if (math.abs(r - v) > eb) { if (r > v) q -= 1 else q += 1 }
    q
  }

  @inline def reconResidual(pred: Double, q: Long, eb: Double): Double = pred + residualStep(q, eb)

  /** The offset `2·eb·q` of residual bin `q` from its prediction. The
    * encoder's reconstruction and both decode loops of LCP-T (per distinct
    * Huffman symbol, per fixed-length value) evaluate this one expression,
    * so their doubles agree bit for bit. */
  @inline def residualStep(q: Long, eb: Double): Double = 2.0 * eb * q

  /** `v`, which must be finite: no bin holds NaN or ±Inf, and a non-finite
    * minimum would shift every bin of its dimension. The error names `what`. */
  @inline def finite(v: Double, what: String = "coordinate"): Double = {
    if (!java.lang.Double.isFinite(v)) throw new IllegalArgumentException(s"non-finite $what $v")
    v
  }

  /** Write a frame header's three minima, for [[readMins]]. */
  def writeMins(out: ByteArrayOutputStream, mx: Double, my: Double, mz: Double): Unit =
    Seq(mx, my, mz).foreach(ByteIO.writeDouble(out, _))

  /** The three minima [[writeMins]] wrote, each checked [[finite]]. */
  def readMins(in: InputStream, codec: String): (Double, Double, Double) = {
    def min() = finite(ByteIO.readDouble(in), s"$codec minimum")
    (min(), min(), min())
  }

  /** `eb`, which must be finite and above 0 to be an error bound; the error
    * names `what`. Every encoder and decoder checks its eb with this. */
  def requireBound(eb: Double, what: String): Double = {
    require(eb > 0 && eb < Double.PositiveInfinity, s"$what must be finite and > 0, got $eb")
    eb
  }

  /** The frame layout of LCP-S, LCP-T, ZFP, TMC13, SZ2, SZ3 and SPERR
    * (§6.2.2, §7.1): the particle count `n`, the error bound, the codec's
    * own header `fields`, then a body of the coded `arrays`. Draco writes
    * its own: its step follows its minima and is no error bound. */
  def writeFrame(n: Int, eb: Double, arrays: Seq[Array[Byte]])(fields: ByteArrayOutputStream => Unit): Array[Byte] = {
    val out = new ByteArrayOutputStream(n + 64)
    Zigzag.writeVarLong(out, n.toLong)
    ByteIO.writeDouble(out, eb)
    fields(out)
    ByteIO.writeBody(out, arrays: _*)
    out.toByteArray
  }

  /** The most bytes [[writeFrame]] writes for `n` particles, no fields, and
    * arrays of these sizes. */
  def maxFrameSize(n: Int, sizes: Seq[Long]): Long = Zigzag.varLongLen(n.toLong) + 8L + ByteIO.maxBodySize(sizes)

  /** The particle count, error bound ([[requireBound]]), header fields and
    * `arrays` coded arrays of a frame written by [[writeFrame]], checked in
    * that order; `fields` reads and checks the codec's own, and errors name
    * `what`. */
  def readFrame[H](bytes: Array[Byte], arrays: Int, what: String)
                  (fields: ByteArrayInputStream => H): (Int, Double, H, Array[Array[Byte]]) = {
    val in = new ByteArrayInputStream(bytes)
    val n  = ByteIO.readCount(in, Int.MaxValue, s"$what particle count")
    val eb = requireBound(ByteIO.readDouble(in), s"$what error bound")
    (n, eb, fields(in), ByteIO.readBody(in, arrays))
  }

  /** Quantize a whole dimension array against `min`; every value must be
    * finite. */
  private def quantizeArray(a: Array[Double], min: Double, eb: Double): Array[Long] = {
    val out = new Array[Long](a.length)
    var i = 0
    while (i < a.length) { out(i) = quantize(finite(a(i)), min, eb); i += 1 }
    out
  }

  /** Dequantize a whole bin array. */
  def dequantizeArray(q: Array[Long], min: Double, eb: Double): Array[Double] = {
    val out = new Array[Double](q.length)
    var i = 0
    while (i < q.length) { out(i) = dequantize(q(i), min, eb); i += 1 }
    out
  }

  /** Quantized frame: bins per dim plus the per-dim minima (frame metadata). */
  final case class QFrame(qx: Array[Long], qy: Array[Long], qz: Array[Long],
                          minX: Double, minY: Double, minZ: Double, eb: Double) {
    def n: Int = qx.length
  }

  /** Quantize all three dims of `f` at error bound `eb`. */
  def quantizeFrame(f: Frame, eb: Double): QFrame = {
    requireBound(eb, "error bound")
    val (mx, my, mz) = f.mins
    QFrame(
      quantizeArray(f.x, mx, eb), quantizeArray(f.y, my, eb), quantizeArray(f.z, mz, eb),
      mx, my, mz, eb)
  }
}
