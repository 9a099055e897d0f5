package repro.coding

import java.io.{ByteArrayOutputStream, InputStream}

/** Small framing helpers: length-prefixed sections and primitive fields,
  * shared by every codec container format in this repo.
  */
object ByteIO {

  def writeSection(out: ByteArrayOutputStream, bytes: Array[Byte]): Unit = {
    Zigzag.writeVarLong(out, bytes.length.toLong)
    out.write(bytes)
  }

  /** Read a section written by [[writeSection]]. The length comes from the
    * input, so it is checked against the bytes remaining before anything is
    * allocated; every container here decodes from an in-memory stream, whose
    * `available()` is exactly that count. */
  def readSection(in: InputStream): Array[Byte] = {
    val len = Zigzag.readVarLong(in)
    require(len >= 0 && len <= in.available(), s"section: bad length $len, ${in.available()} bytes remain")
    val n   = len.toInt
    val buf = new Array[Byte](n)
    var off = 0
    while (off < n) {
      val r = in.read(buf, off, n - off)
      require(r > 0, "section: unexpected end of stream")
      off += r
    }
    buf
  }

  def writeDouble(out: ByteArrayOutputStream, v: Double): Unit = {
    val bits = java.lang.Double.doubleToLongBits(v)
    var i = 56
    while (i >= 0) { out.write(((bits >>> i) & 0xff).toInt); i -= 8 }
  }

  def readDouble(in: InputStream): Double = {
    var bits = 0L
    var i = 0
    while (i < 8) { val b = in.read(); require(b >= 0, "double: EOF"); bits = (bits << 8) | b; i += 1 }
    java.lang.Double.longBitsToDouble(bits)
  }
}
