package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import repro.coding.{ByteIO, IntCoder, Zigzag}

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
    val maxBytes: Long = Zigzag.varLongLen(n.toLong) + 8L + ByteIO.maxBodySize(plans.map(_.size))

    /** The frame, its three arrays packed concurrently ([[Fork]]). */
    def pack(): Array[Byte] = writeFrame(n, eb, Fork.map(plans)(_.pack()))

    /** The frame, packed on the calling thread alone: for a pool task, whose
      * forks would compete with the chain's own for the pool's threads. */
    def packHere(): Array[Byte] = writeFrame(n, eb, plans.map(_.pack()))
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

  /** Decompress a frame written by [[compress]] given the same `prevRecon`.
    * The three residual sections decode concurrently ([[Fork]]). */
  def decompress(bytes: Array[Byte], prevRecon: Frame): Frame = {
    val (n, eb, sections) = readFrame(bytes, 3, "LCP-T")
    require(n == prevRecon.n, s"frame length $n does not match previous frame ${prevRecon.n}")
    val step = (q: Long) => Quantizer.residualStep(q, eb)
    val dims = Fork.map(sections.toSeq.zip(Seq(prevRecon.x, prevRecon.y, prevRecon.z))) {
      case (section, prev) => IntCoder.decodeResiduals(new ByteArrayInputStream(section), prev, step)
    }
    Frame(dims(0), dims(1), dims(2))
  }

  /** The residual frame layout of LCP-T, SZ2, SZ3 and SPERR: the particle
    * count `n`, the error bound, then a body of the coded `arrays`. */
  def writeFrame(n: Int, eb: Double, arrays: Seq[Array[Byte]]): Array[Byte] = {
    val out = new ByteArrayOutputStream(n + 64)
    Zigzag.writeVarLong(out, n.toLong)
    ByteIO.writeDouble(out, eb)
    ByteIO.writeBody(out, arrays: _*)
    out.toByteArray
  }

  /** The particle count, error bound and `arrays` coded arrays of a frame
    * written by [[writeFrame]]; errors name `what`. */
  def readFrame(bytes: Array[Byte], arrays: Int, what: String): (Int, Double, Array[Array[Byte]]) = {
    val in = new ByteArrayInputStream(bytes)
    val n  = ByteIO.readCount(in, Int.MaxValue, s"$what particle count")
    val eb = Quantizer.requireBound(ByteIO.readDouble(in), s"$what error bound")
    (n, eb, ByteIO.readBody(in, arrays))
  }
}
