package repro.coding

import java.util.Arrays

/** The bit primitives of the fixed-length and Huffman coders (DESIGN.md
  * §3): one MSB-first packing loop through a 64-bit accumulator, and the
  * 64-bit window their decoders read through. Values are written
  * most-significant-bit first so canonical Huffman codes compare correctly
  * during decode.
  *
  * The accumulator holds the pending bits in its low bits; a value that
  * does not fit completes the current 64-bit word, which is stored as 8
  * big-endian bytes, and its remaining low bits start the next word.
  * [[pack]] writes into an exactly sized array, so its loop has no
  * per-value bounds check, `require` or per-byte loop.
  */
private[coding] object BitPack {

  /** The bits of `bytes` from bit `bitPos` (at most the bit length) on,
    * MSB first and left-aligned: the top `64 - bitPos % 8` bits are the
    * next bits of the stream, and bits past its end read 0. Away from the
    * last 8 bytes this is one big-endian word load, with no copy of
    * `bytes`; the decoders check once per window how many of its bits they
    * may consume. */
  @inline def window(bytes: Array[Byte], bitPos: Long): Long = {
    val p = (bitPos >>> 3).toInt
    val w =
      if (p + 8 <= bytes.length)
        ((bytes(p) & 0xffL) << 56) | ((bytes(p + 1) & 0xffL) << 48) |
          ((bytes(p + 2) & 0xffL) << 40) | ((bytes(p + 3) & 0xffL) << 32) |
          ((bytes(p + 4) & 0xffL) << 24) | ((bytes(p + 5) & 0xffL) << 16) |
          ((bytes(p + 6) & 0xffL) << 8) | (bytes(p + 7) & 0xffL)
      else {
        var v = 0L
        var q = p
        while (q < p + 8) { v = (v << 8) | (if (q < bytes.length) bytes(q) & 0xffL else 0L); q += 1 }
        v
      }
    w << (bitPos & 7)
  }

  /** Store `word` big-endian at `out(p..p+7)`. */
  @inline def putWord(out: Array[Byte], p: Int, word: Long): Unit = {
    out(p) = (word >>> 56).toByte; out(p + 1) = (word >>> 48).toByte
    out(p + 2) = (word >>> 40).toByte; out(p + 3) = (word >>> 32).toByte
    out(p + 4) = (word >>> 24).toByte; out(p + 5) = (word >>> 16).toByte
    out(p + 6) = (word >>> 8).toByte; out(p + 7) = word.toByte
  }

  /** Store the `bits` (1..63) pending low bits of `acc`, zero-padded to a
    * byte boundary, at `out(p..)`. */
  @inline def putTail(out: Array[Byte], p: Int, acc: Long, bits: Int): Unit = {
    var w = acc << (64 - bits)
    var q = p
    while (q < p + (bits + 7) / 8) { out(q) = (w >>> 56).toByte; w <<= 8; q += 1 }
  }

  /** The `bits` bits of `value(i)`, packed in its low `length(i)` bits
    * (0..64, the value below 2^length) for i in 0 until n, one after
    * another. The output is sized once from `bits`, their total. */
  def pack(n: Int, bits: Long, length: Int => Int, value: Int => Long): Array[Byte] = {
    val out  = new Array[Byte](((bits + 7) / 8).toInt)
    var acc  = 0L
    var held = 0
    var p    = 0
    var i    = 0
    while (i < n) {
      val l    = length(i)
      val v    = value(i)
      val free = 64 - held
      if (l < free) { acc = (acc << l) | v; held += l }
      else {
        putWord(out, p, if (free == 64) v else (acc << free) | (v >>> (l - free)))
        p += 8; held = l - free; acc = v
      }
      i += 1
    }
    if (held > 0) putTail(out, p, acc, held)
    out
  }
}

/** Incremental MSB-first bit writer on the same accumulator as [[BitPack]],
  * for coders that interleave widths (the ZFP-style baseline). */
final class BitWriter(initialCapacity: Int = 64) {
  private var buf: Array[Byte] = new Array[Byte](math.max(8, initialCapacity))
  private var pos  = 0   // bytes of completed 64-bit words
  private var acc  = 0L  // pending bits, in the low `bits` bits
  private var bits = 0

  /** Append the low `nbits` bits of `value` (0 <= nbits <= 64). */
  def writeBits(value: Long, nbits: Int): Unit = {
    require(nbits >= 0 && nbits <= 64, s"nbits out of range: $nbits")
    if (nbits == 0) return
    val v    = if (nbits == 64) value else value & ((1L << nbits) - 1)
    val free = 64 - bits
    if (nbits < free) { acc = (acc << nbits) | v; bits += nbits }
    else {
      if (pos + 8 > buf.length) buf = Arrays.copyOf(buf, math.max(pos + 8, buf.length * 2))
      BitPack.putWord(buf, pos, if (free == 64) v else (acc << free) | (v >>> (nbits - free)))
      pos += 8; bits = nbits - free; acc = v
    }
  }

  /** Snapshot of the written bits, padded with zero bits to a byte boundary. */
  def toBytes: Array[Byte] = {
    val out = Arrays.copyOf(buf, pos + (bits + 7) / 8)
    if (bits > 0) BitPack.putTail(out, pos, acc, bits)
    out
  }
}

/** MSB-first bit reader over a byte array, for coders that interleave
  * widths (the ZFP-style baseline). Every read is checked against the end
  * of the stream; the bulk decoders of [[FixedLength]] and [[Huffman]] read
  * [[BitPack.window]] directly and check once per window instead.
  */
final class BitReader(bytes: Array[Byte]) {
  private var bitPos: Long = 0L
  private val limit: Long  = bytes.length.toLong * 8

  /** Read `nbits` bits as an unsigned value in a Long (nbits <= 64). */
  def readBits(nbits: Int): Long = {
    require(nbits >= 0 && nbits <= 64, s"nbits out of range: $nbits")
    require(bitPos + nbits <= limit, s"bit stream exhausted at $bitPos + $nbits > $limit")
    if (nbits == 0) return 0L
    if (nbits <= 56) {
      val v = BitPack.window(bytes, bitPos) >>> (64 - nbits)
      bitPos += nbits
      v
    } else {
      // Wide reads (57..64 bits) in two halves.
      val hi = readBits(32)
      val lo = readBits(nbits - 32)
      (hi << (nbits - 32)) | lo
    }
  }
}
