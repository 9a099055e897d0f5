package repro.coding

/** Fixed-length bit packing: every value stored with the same bit width
  * (the width of the largest value). One of the two §6.2.2 coding choices.
  * Input values must be non-negative (zigzag first for signed data).
  */
object FixedLength {

  /** Bit width needed to store values whose bitwise OR is `or`: the OR has
    * the bit width of the largest value, and it is negative exactly when a
    * value is (a zigzag code >= 2^63), which no width can store. */
  def widthOfOr(or: Long): Int = {
    require(or >= 0, "FixedLength requires non-negative input")
    Zigzag.bitWidth(or)
  }

  /** Pack the low `width` bits of each value of `a`. */
  def encode(a: Array[Long], width: Int): Array[Byte] = {
    val mask = if (width == 64) -1L else (1L << width) - 1
    BitPack.pack(a.length, a.length.toLong * width, _ => width, a(_) & mask)
  }

  /** Unpack `n` values of `width` bits each. The values must fit in
    * `bytes`; that is checked once, so the unpack runs without a per-value
    * check: each 64-bit [[BitPack.window]] yields every value that lies
    * whole inside it (widths up to 56), and a wider value is read as two
    * halves. */
  def decode(bytes: Array[Byte], n: Int, width: Int): Array[Long] = {
    require(width >= 0 && width <= 64 && n >= 0 && n.toLong * width <= 8L * bytes.length,
      s"FixedLength: $n values of $width bits in ${bytes.length} bytes")
    val out    = new Array[Long](n)
    var bitPos = 0L
    var i      = 0
    if (width > 56) {
      while (i < n) {
        val hi = BitPack.window(bytes, bitPos) >>> 32
        val lo = BitPack.window(bytes, bitPos + 32) >>> (96 - width)
        out(i) = (hi << (width - 32)) | lo
        bitPos += width
        i += 1
      }
    } else if (width > 0) {
      while (i < n) {
        val start = 64 - (bitPos & 7).toInt // bits of the window in the stream, >= 57
        var w     = BitPack.window(bytes, bitPos)
        var left  = start
        while (left >= width && i < n) { out(i) = w >>> (64 - width); w <<= width; left -= width; i += 1 }
        bitPos += start - left
      }
    }
    out
  }
}
