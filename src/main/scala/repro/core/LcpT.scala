package repro.core

import java.io.ByteArrayInputStream
import repro.coding.IntCoder

/** LCP-T — the temporal compressor (§7.1).
  *
  * Each coordinate of the current frame is predicted by the previous
  * *reconstructed* frame at the same index and the residual is quantized
  * with the error-bound-aware scheme of §6.1, centred on the prediction
  * (see [[Quantizer.quantizeResidual]]); the integer difference array is
  * then coded with Huffman + Zstd. Compressor and decompressor derive the
  * identical reconstruction `prev + 2·eb·q`, so chaining is exact and the
  * per-frame bound |d − d'| ≤ eb holds regardless of chain length.
  *
  * The current frame is aligned to the previous frame's stored particle
  * order (per-index correspondence; DESIGN.md §2), either by the caller or
  * through the perm the multi-frame compressor passes.
  */
object LcpT {

  /** @param bytes compressed frame; @param recon reconstruction in the same
    * (inherited) stored order — the next frame's prediction basis. */
  final case class TResult(bytes: Array[Byte], recon: Frame)

  /** Compress `aligned` at bound `eb`, predicting from `prevRecon`. Every
    * coordinate of `aligned` must be finite. */
  def compress(aligned: Frame, prevRecon: Frame, eb: Double): TResult = {
    val t = trial(aligned, Array.range(0, aligned.n), prevRecon, eb)
    TResult(t.pack(), t.recon)
  }

  /** One frame's chain step, taken before any bit is packed: `recon`, the
    * next frame's prediction basis, and `maxBytes`, an upper bound on the
    * frame's size, exact up to what Zstd makes of the body. */
  final class Trial private[LcpT] (n: Int, eb: Double, plans: Seq[IntCoder.Plan], val recon: Frame) {
    val maxBytes: Long = Quantizer.maxFrameSize(n, plans.map(_.size))

    /** The frame, its three arrays packed concurrently ([[Fork]]). */
    def pack(): Array[Byte] = Quantizer.writeFrame(n, eb, Fork.map(plans)(_.pack()))(_ => ())

    /** The frame, packed on the calling thread alone: for a pool task, whose
      * forks would compete with the chain's own for the pool's threads. */
    def packHere(): Array[Byte] = Quantizer.writeFrame(n, eb, plans.map(_.pack()))(_ => ())
  }

  /** The chain step of [[compress]]: the three dimensions are quantized,
    * reconstructed and planned concurrently ([[Fork]]). */
  def trial(cur: Frame, perm: Array[Int], prevRecon: Frame, eb: Double): Trial = {
    require(cur.n == prevRecon.n,
      s"temporal compression requires equal particle counts: ${cur.n} vs ${prevRecon.n}")
    require(perm.length == cur.n, s"alignment perm has ${perm.length} entries for ${cur.n} particles")
    Quantizer.requireBound(eb, "error bound")
    val n    = cur.n
    val dims = Fork.map(Seq((cur.x, prevRecon.x), (cur.y, prevRecon.y), (cur.z, prevRecon.z))) {
      case (c, prev) =>
        val q = new Array[Long](n)
        val r = new Array[Double](n)
        var i = 0
        while (i < n) {
          q(i) = Quantizer.quantizeResidual(Quantizer.finite(c(perm(i))), prev(i), eb)
          r(i) = Quantizer.reconResidual(prev(i), q(i), eb)
          i += 1
        }
        // Diffs are already small and centred on zero; the delta stage stays
        // off and the Huffman-vs-fixed pick runs on the raw residual array.
        (IntCoder.plan(q, delta = false), r)
    }
    new Trial(n, eb, dims.map(_._1), Frame(dims(0)._2, dims(1)._2, dims(2)._2))
  }

  /** Decompress a frame written by [[compress]] given the same `prevRecon`:
    * its [[steps]], then the basis added ([[addBasis]]). */
  def decompress(bytes: Array[Byte], prevRecon: Frame): Frame = {
    val d = steps(bytes, prevRecon.n)
    addBasis(d.x, prevRecon.x)
    addBasis(d.y, prevRecon.y)
    addBasis(d.z, prevRecon.z)
    d
  }

  /** The part of a decode that needs no basis: each coordinate's residual
    * step `2·eb·q` ([[Quantizer.residualStep]]). `n` is the basis's particle
    * count; the frame's count must equal it, and it bounds every residual
    * array before anything is sized by it. The three residual sections
    * decode concurrently ([[Fork]]). */
  def steps(bytes: Array[Byte], n: Int): Frame = {
    val (count, eb, _, sections) = Quantizer.readFrame(bytes, 3, "LCP-T")(_ => ())
    require(count == n, s"frame length $count does not match previous frame $n")
    val step         = (q: Long) => Quantizer.residualStep(q, eb)
    val Seq(x, y, z) = Fork.map(sections.toSeq)(s => IntCoder.decodeSteps(new ByteArrayInputStream(s), n, step))
    Frame(x, y, z)
  }

  /** The rest of the decode: `steps(i) = basis(i) + steps(i)` in place, one
    * dimension. This is the encoder's `reconResidual(basis(i), q, eb)`, the
    * same IEEE sum of the same two doubles, so the bits agree. */
  def addBasis(steps: Array[Double], basis: Array[Double]): Unit = {
    var i = 0
    while (i < steps.length) { steps(i) = basis(i) + steps(i); i += 1 }
  }
}
