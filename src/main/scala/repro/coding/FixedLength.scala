package repro.coding

/** Fixed-length bit packing: every value stored with the same bit width
  * (the width of the largest value). One of the two §6.2.2 coding choices.
  * Input values must be non-negative (zigzag first for signed data).
  */
object FixedLength {

  /** Bit width needed to store every value of `a` (0 for an all-zero array). */
  def widthFor(a: Array[Long]): Int = {
    var or = 0L
    var i  = 0
    while (i < a.length) { or |= a(i); i += 1 }
    widthOfOr(or)
  }

  /** [[widthFor]] of values whose bitwise OR is `or`: the OR has the bit
    * width of the largest value, and it is negative exactly when a value
    * is (a zigzag code >= 2^63), which no width can store. */
  def widthOfOr(or: Long): Int = {
    require(or >= 0, "FixedLength requires non-negative input")
    Zigzag.bitWidth(or)
  }

  /** Pack the low `width` bits of each value of `a`. */
  def encode(a: Array[Long], width: Int): Array[Byte] = {
    val out = new Array[Byte](((a.length.toLong * width + 7) / 8).toInt)
    BitPack.packFixed(a, width, out)
    out
  }

  /** Unpack `n` values of `width` bits each. */
  def decode(bytes: Array[Byte], n: Int, width: Int): Array[Long] = {
    val r   = new BitReader(bytes)
    val out = new Array[Long](n)
    var i   = 0
    while (i < n) { out(i) = r.readBits(width); i += 1 }
    out
  }
}
