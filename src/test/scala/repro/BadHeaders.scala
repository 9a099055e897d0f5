package repro

import java.io.ByteArrayInputStream
import repro.coding.Zigzag

/** Values that no error bound, minimum or block size may take, and the byte
  * rewrites that put one into an encoded header. */
object BadHeaders {

  /** Error bounds every encoder rejects: none is finite and above 0. */
  val Ebs: Seq[Double] = Seq(0.0, -1.0, Double.NaN, Double.PositiveInfinity)

  /** Error bounds every decoder rejects in a header, a negative one that
    * would decode to plausible values among them. */
  val HeaderEbs: Seq[Double] = Seq(0.0, -0.01, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)

  /** Minima every decoder rejects in a header. */
  val Mins: Seq[Double] = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)

  /** Block sizes that are not powers of two. */
  val Ps: Seq[Int] = Seq(3, 6, 100)

  /** `bytes` with the double that `ByteIO.writeDouble` wrote at `offset`
    * (big-endian bits) replaced by `v`. */
  def withDoubleAt(bytes: Array[Byte], offset: Int, v: Double): Array[Byte] = {
    val out = bytes.clone()
    java.nio.ByteBuffer.wrap(out).putDouble(offset, v)
    out
  }

  /** The offset just past the varint that starts at `offset` of `bytes`. */
  def afterVarint(bytes: Array[Byte], offset: Int = 0): Int = {
    val in = new ByteArrayInputStream(bytes, offset, bytes.length - offset)
    Zigzag.readVarLong(in)
    bytes.length - in.available()
  }
}
