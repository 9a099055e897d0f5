package repro.coding

import java.util.Arrays

/** MSB-first bit packing through a 64-bit accumulator, the encode side of
  * the fixed-length and Huffman coders (DESIGN.md §3). Values are written
  * most-significant-bit first so canonical Huffman codes compare correctly
  * during decode.
  *
  * The accumulator holds the pending bits in its low bits; a value that
  * does not fit completes the current 64-bit word, which is stored as 8
  * big-endian bytes, and its remaining low bits start the next word. The
  * bulk packers write into an exactly sized array, so the hot loops have no
  * per-value bounds check, `require` or per-byte loop.
  */
private[coding] object BitPack {

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

  /** Pack the low `width` bits of every value of `a` into `out`, which
    * must hold exactly `(a.length * width + 7) / 8` bytes. */
  def packFixed(a: Array[Long], width: Int, out: Array[Byte]): Unit = {
    if (width == 0) return
    val mask = if (width == 64) -1L else (1L << width) - 1
    var acc  = 0L
    var bits = 0
    var p    = 0
    var i    = 0
    while (i < a.length) {
      val v    = a(i) & mask
      val free = 64 - bits
      if (width < free) { acc = (acc << width) | v; bits += width }
      else {
        putWord(out, p, if (free == 64) v else (acc << free) | (v >>> (width - free)))
        p += 8; bits = width - free; acc = v
      }
      i += 1
    }
    if (bits > 0) putTail(out, p, acc, bits)
  }

  /** Pack symbol `ids(i)`'s codeword `codes(ids(i))` of `lengths(ids(i))`
    * bits (1..58, codeword below 2^length) for every i into `out`, which
    * must hold exactly the payload's bytes. */
  def packCodes(ids: Array[Int], codes: Array[Long], lengths: Array[Int], out: Array[Byte]): Unit = {
    var acc  = 0L
    var bits = 0
    var p    = 0
    var i    = 0
    while (i < ids.length) {
      val id   = ids(i)
      val v    = codes(id)
      val l    = lengths(id)
      val free = 64 - bits
      if (l < free) { acc = (acc << l) | v; bits += l }
      else {
        putWord(out, p, (acc << free) | (v >>> (l - free)))
        p += 8; bits = l - free; acc = v
      }
      i += 1
    }
    if (bits > 0) putTail(out, p, acc, bits)
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

  /** Number of bits written so far. */
  def lengthInBits: Long = pos * 8L + bits

  /** Snapshot of the written bits, padded with zero bits to a byte boundary. */
  def toBytes: Array[Byte] = {
    val out = Arrays.copyOf(buf, pos + (bits + 7) / 8)
    if (bits > 0) BitPack.putTail(out, pos, acc, bits)
    out
  }
}

/** MSB-first bit reader over a byte array.
  *
  * Hot path: [[peekBits]]/[[readBits]] for widths ≤ 56 assemble an 8-byte
  * big-endian window with direct indexing into a zero-padded copy — no
  * per-byte loop — which is what makes table-driven Huffman decode and
  * fixed-length unpack run at memory speed.
  */
final class BitReader(bytes: Array[Byte]) {
  private var bitPos: Long = 0L
  private val limit: Long  = bytes.length.toLong * 8
  // Zero padding lets the 8-byte window read past the logical end; the
  // decoders never *consume* past `limit` (enforced in skip/read).
  private val padded: Array[Byte] = Arrays.copyOf(bytes, bytes.length + 8)

  /** 64-bit big-endian window starting at byte `idx`. */
  @inline private def window(idx: Int): Long =
    ((padded(idx) & 0xffL) << 56) | ((padded(idx + 1) & 0xffL) << 48) |
      ((padded(idx + 2) & 0xffL) << 40) | ((padded(idx + 3) & 0xffL) << 32) |
      ((padded(idx + 4) & 0xffL) << 24) | ((padded(idx + 5) & 0xffL) << 16) |
      ((padded(idx + 6) & 0xffL) << 8) | (padded(idx + 7) & 0xffL)

  /** Read `nbits` bits as an unsigned value in a Long (nbits <= 64). */
  def readBits(nbits: Int): Long = {
    require(nbits >= 0 && nbits <= 64, s"nbits out of range: $nbits")
    require(bitPos + nbits <= limit, s"bit stream exhausted at $bitPos + $nbits > $limit")
    if (nbits == 0) return 0L
    if (nbits <= 56) {
      val v = (window((bitPos >> 3).toInt) << (bitPos & 7)) >>> (64 - nbits)
      bitPos += nbits
      v
    } else {
      // Wide reads (57..64 bits) in two halves.
      val hi = readBits(32)
      val lo = readBits(nbits - 32)
      (hi << (nbits - 32)) | lo
    }
  }

  /** Read a single bit (0 or 1). */
  def readBit(): Int = readBits(1).toInt

  /** Peek `nbits` (≤ 56) bits without consuming; past-the-end bits read 0. */
  def peekBits(nbits: Int): Long = {
    require(nbits >= 0 && nbits <= 56, s"peek width out of range: $nbits")
    if (nbits == 0) 0L
    else (window((bitPos >> 3).toInt) << (bitPos & 7)) >>> (64 - nbits)
  }

  /** Advance the cursor by `nbits` (after a successful peek). */
  def skipBits(nbits: Int): Unit = {
    require(bitPos + nbits <= limit, "skip past end of stream")
    bitPos += nbits
  }
}
