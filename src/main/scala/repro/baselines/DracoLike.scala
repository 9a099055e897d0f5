package repro.baselines

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import repro.coding.{ByteIO, IntCoder, Zigzag}
import repro.core.{Frame, Quantizer}

/** Draco-style baseline: point-cloud sequential coding. Positions are
  * quantized to a user-selected number of bits over the bounding box (NOT
  * to an arbitrary error bound — §8.1.3: "users can only specify the
  * number of bits"), Morton-sorted, delta-coded and entropy-coded.
  *
  * When driven by the benches at a target `eb`, the bit count is the
  * smallest whole number of bits whose quantization step stays within the
  * bound — producing Draco's staircase rate-distortion curves (Fig. 12).
  * Point order is lost (multiset semantics).
  */
object DracoLike extends FrameWiseCodec {
  override val name = "Draco"
  override val errorBounded = false

  /** Discrete quality levels: bits per dimension. */
  def bitsForEb(f: Frame, eb: Double): Int = {
    val range = math.max(f.valueRange, 1e-300)
    val bits  = math.ceil(math.log(range / (2.0 * eb)) / math.log(2.0)).toInt
    math.min(math.max(bits, 1), Morton.MaxBits)
  }

  override def compressFrame(f: Frame, eb: Double): (Array[Byte], Array[Int]) = {
    val bits = bitsForEb(f, eb)
    val (mx, my, mz) = f.mins
    val step = math.max(Quantizer.finite(f.valueRange, "Draco coordinate range"), 1e-300) / ((1L << bits) - 1).toDouble

    val (perm, sorted) = Morton.sort(f.n) { i =>
      Morton.encode(Math.round((f.x(i) - mx) / step), Math.round((f.y(i) - my) / step), Math.round((f.z(i) - mz) / step))
    }

    // Not Quantizer.writeFrame's frame, whose eb follows the count: Draco's
    // step follows its minima and is a grid spacing, not an error bound.
    val out = new ByteArrayOutputStream(f.n + 64)
    Zigzag.writeVarLong(out, f.n.toLong)
    out.write(bits)
    Quantizer.writeMins(out, mx, my, mz)
    ByteIO.writeDouble(out, step)
    ByteIO.writeBody(out, IntCoder.encode(sorted, delta = true))
    (out.toByteArray, perm)
  }

  override def decompressFrame(bytes: Array[Byte]): Frame = {
    val in   = new ByteArrayInputStream(bytes)
    val n    = ByteIO.readCount(in, Int.MaxValue, "Draco particle count")
    val bits = in.read()
    require(bits >= 1 && bits <= Morton.MaxBits, s"bad bit count $bits")
    val (mx, my, mz) = Quantizer.readMins(in, "Draco")
    val step  = Quantizer.requireBound(ByteIO.readDouble(in), "Draco step")
    val codes = IntCoder.decode(new ByteArrayInputStream(ByteIO.readBody(in, 1)(0)), n)
    require(codes.length == n, "length mismatch")
    val x = new Array[Double](n); val y = new Array[Double](n); val z = new Array[Double](n)
    var i = 0
    while (i < n) {
      val (qx, qy, qz) = Morton.decode(codes(i))
      x(i) = mx + qx * step; y(i) = my + qy * step; z(i) = mz + qz * step
      i += 1
    }
    Frame(x, y, z)
  }
}
