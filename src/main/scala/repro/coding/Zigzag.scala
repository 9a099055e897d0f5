package repro.coding

import java.io.ByteArrayOutputStream

/** Zigzag mapping between signed and unsigned Longs, plus LEB128 varints.
  *
  * Delta-coded arrays (block ids, counts, relative positions — DESIGN.md §3)
  * contain negative values; zigzag folds them into small non-negative codes
  * so both the fixed-length and Huffman stages see a compact alphabet.
  */
object Zigzag {

  /** Map a signed value to a non-negative code: 0,-1,1,-2,... -> 0,1,2,3,... */
  @inline def encode(v: Long): Long = (v << 1) ^ (v >> 63)

  /** Inverse of [[encode]]. */
  @inline def decode(v: Long): Long = (v >>> 1) ^ -(v & 1)

  /** Write an unsigned LEB128 varint. */
  def writeVarLong(out: ByteArrayOutputStream, value: Long): Unit = {
    var v = value
    while ((v & ~0x7fL) != 0) {
      out.write(((v & 0x7f) | 0x80).toInt)
      v >>>= 7
    }
    out.write(v.toInt)
  }

  /** Bytes [[writeVarLong]] takes for `value` (10 for negative values). */
  @inline def varLongLen(value: Long): Int = math.max(1, (bitWidth(value) + 6) / 7)

  /** Write `value` as a varint into `buf` at `pos`; returns the next position. */
  def putVarLong(buf: Array[Byte], pos: Int, value: Long): Int = {
    var v = value
    var p = pos
    while ((v & ~0x7fL) != 0) {
      buf(p) = ((v & 0x7f) | 0x80).toByte
      v >>>= 7
      p += 1
    }
    buf(p) = v.toByte
    p + 1
  }

  /** Read an unsigned LEB128 varint written by [[writeVarLong]]. A 64-bit
    * value takes at most 10 bytes, the 10th holding only bit 63; a longer
    * or wider varint is rejected, since `<<` would wrap its shift. */
  def readVarLong(in: java.io.InputStream): Long = {
    var shift = 0
    var out   = 0L
    var b     = 0
    do {
      b = in.read()
      require(b >= 0, "varint: unexpected end of stream")
      require(shift < 63 || b <= 1, "varint: wider than 64 bits")
      out |= (b & 0x7fL) << shift
      shift += 7
    } while ((b & 0x80) != 0)
    out
  }

  /** Bits needed to represent `v` (>=0); 0 needs 0 bits by this convention. */
  @inline def bitWidth(v: Long): Int = 64 - java.lang.Long.numberOfLeadingZeros(v)
}
