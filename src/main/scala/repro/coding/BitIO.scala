package repro.coding

import java.util.Arrays

/** MSB-first bit writer backed by a growable byte array.
  *
  * This is the low-level substrate shared by the fixed-length and Huffman
  * coders (DESIGN.md §3). Values are written most-significant-bit first so
  * canonical Huffman codes compare correctly during decode.
  */
final class BitWriter(initialCapacity: Int = 64) {
  private var buf: Array[Byte] = new Array[Byte](math.max(8, initialCapacity))
  private var bitPos: Long     = 0L

  private def ensure(bytes: Int): Unit = {
    val need = ((bitPos + 7) >> 3).toInt + bytes
    if (need > buf.length) buf = Arrays.copyOf(buf, math.max(need, buf.length * 2))
  }

  /** Append the low `nbits` bits of `value` (0 <= nbits <= 64). */
  def writeBits(value: Long, nbits: Int): Unit = {
    require(nbits >= 0 && nbits <= 64, s"nbits out of range: $nbits")
    ensure((nbits >> 3) + 2)
    var remaining = nbits
    while (remaining > 0) {
      val byteIdx = (bitPos >> 3).toInt
      val bitOff  = (bitPos & 7).toInt
      val room    = 8 - bitOff
      val take    = math.min(room, remaining)
      // Bits of `value` still to be written, highest first.
      val chunk = ((value >>> (remaining - take)) & ((1L << take) - 1)).toInt
      buf(byteIdx) = (buf(byteIdx) | (chunk << (room - take))).toByte
      bitPos += take
      remaining -= take
    }
  }

  /** Number of bits written so far. */
  def lengthInBits: Long = bitPos

  /** Snapshot of the written bits, padded with zero bits to a byte boundary. */
  def toBytes: Array[Byte] = Arrays.copyOf(buf, ((bitPos + 7) >> 3).toInt)
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
