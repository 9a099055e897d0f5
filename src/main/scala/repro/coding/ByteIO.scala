package repro.coding

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, InputStream}

/** The framing shared by every codec container format in this repo:
  * length-prefixed sections, section lists, the Zstd-compressed frame body,
  * checked counts and primitive fields.
  */
object ByteIO {

  /** An output stream into one array of exactly `size` bytes, which
    * [[bytes]] returns, uncopied, once it is full. */
  final class ExactOutput(size: Int) extends ByteArrayOutputStream(size) {
    def bytes: Array[Byte] = {
      require(count == size, s"$count bytes written for $size")
      buf
    }
  }

  /** The bytes [[writeSection]] writes for a section of `length` bytes. */
  def sectionSize(length: Long): Long = Zigzag.varLongLen(length) + length

  /** The bytes [[writeSections]] writes for `sections`. */
  def sectionListSize(sections: Seq[Array[Byte]]): Long =
    sections.foldLeft(Zigzag.varLongLen(sections.size.toLong).toLong)((sum, s) => sum + sectionSize(s.length))

  def writeSection(out: ByteArrayOutputStream, bytes: Array[Byte]): Unit = {
    Zigzag.writeVarLong(out, bytes.length.toLong)
    out.write(bytes)
  }

  /** Read a section written by [[writeSection]]. The length comes from the
    * input, so it is checked against the bytes remaining before anything is
    * allocated. The stream is in memory, so `available()` is exactly that
    * count; every reader here that bounds a length by it takes a
    * `ByteArrayInputStream` for that reason. The bound is taken before the
    * length's own varint is read, so a length up to that varint's size too
    * long passes it and fails the read. */
  def readSection(in: ByteArrayInputStream): Array[Byte] = {
    val buf = new Array[Byte](readCount(in, in.available().toLong, "section length"))
    require(in.readNBytes(buf, 0, buf.length) == buf.length, "section: unexpected end of stream")
    buf
  }

  /** A count, length or index varint, checked to lie in [0, max] (with max
    * at most `Int.MaxValue`) before anything uses it. */
  def readCount(in: InputStream, max: Long, what: String): Int = {
    val v = Zigzag.readVarLong(in)
    require(v >= 0 && v <= max, s"$what: bad value $v (allowed 0..$max)")
    v.toInt
  }

  /** Section list: a count, then the sections. */
  def writeSections(out: ByteArrayOutputStream, sections: Seq[Array[Byte]]): Unit = {
    Zigzag.writeVarLong(out, sections.size.toLong)
    sections.foreach(writeSection(out, _))
  }

  /** Read a list written by [[writeSections]]. Every section takes at least
    * its length byte, so the count cannot exceed the bytes remaining. */
  def readSections(in: ByteArrayInputStream): IndexedSeq[Array[Byte]] =
    IndexedSeq.fill(readCount(in, in.available().toLong, "section count"))(readSection(in))

  /** Frame body, the last stage of the §6.2.2 chain: `sections` written one
    * after another as sections, Zstd-compressed once as a whole, and the
    * result written to `out` as one section. */
  def writeBody(out: ByteArrayOutputStream, sections: Array[Byte]*): Unit = {
    val size = sections.foldLeft(0L)((sum, s) => sum + sectionSize(s.length))
    require(size <= Int.MaxValue, s"frame body of $size bytes")
    val body = new Array[Byte](size.toInt)
    var pos  = 0
    sections.foreach { s =>
      pos = Zigzag.putVarLong(body, pos, s.length.toLong)
      System.arraycopy(s, 0, body, pos, s.length)
      pos += s.length
    }
    writeSection(out, Dictionary.compress(body))
  }

  /** The most bytes [[writeBody]] writes for sections of these sizes. */
  def maxBodySize(sizes: Seq[Long]): Long =
    sectionSize(Dictionary.maxCompressedSize(sizes.foldLeft(0L)((sum, s) => sum + sectionSize(s))))

  /** Read a body written by [[writeBody]] holding exactly `count` sections.
    * Every frame format ends with its body, so `in` must end with it too. */
  def readBody(in: ByteArrayInputStream, count: Int): Array[Array[Byte]] = {
    val stored = readSection(in)
    requireEnd(in, "the frame body")
    val body   = new ByteArrayInputStream(Dictionary.decompress(stored))
    val sections = Array.fill(count)(readSection(body))
    requireEnd(body, s"the frame body's $count sections")
    sections
  }

  /** Reject any byte of `in` left after `what`, the last thing its format
    * holds. */
  def requireEnd(in: ByteArrayInputStream, what: String): Unit =
    require(in.available() == 0, s"${in.available()} bytes after $what")

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
