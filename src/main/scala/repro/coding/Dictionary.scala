package repro.coding

import com.github.luben.zstd.{Zstd, ZstdException}

/** Dictionary-coding stage (§6.2.2): Zstd, exactly as the paper, via the
  * zstd-jni library that ships with the Spark distribution.
  */
object Dictionary {
  private val Level = 3

  /** Compress `bytes`; output is self-framing (original size prefix). */
  def compress(bytes: Array[Byte]): Array[Byte] = {
    val out    = new java.io.ByteArrayOutputStream(bytes.length / 2 + 16)
    Zigzag.writeVarLong(out, bytes.length.toLong)
    out.write(Zstd.compress(bytes, Level))
    out.toByteArray
  }

  /** The most bytes [[compress]] returns for `size` input bytes: the size
    * prefix, then Zstd's worst case, `Zstd.compressBound`, by which zstd-jni
    * sizes its output buffer. */
  def maxCompressedSize(size: Long): Long = Zigzag.varLongLen(size) + Zstd.compressBound(size)

  /** Inverse of [[compress]]. The size prefix comes from the input, so it
    * must agree with the content size the Zstd frame declares before the
    * output is allocated. The frame is decoded in place, with no copy of
    * the input, and a frame Zstd rejects raises IllegalArgumentException
    * with Zstd's error as its cause. */
  def decompress(bytes: Array[Byte]): Array[Byte] = {
    val in   = new java.io.ByteArrayInputStream(bytes)
    val size = Zigzag.readVarLong(in)
    val off  = bytes.length - in.available()
    val len  = in.available()
    require(size >= 0 && size <= Int.MaxValue, s"Dictionary: bad size $size")
    if (size == 0) Array.emptyByteArray
    else {
      val declared = Zstd.getFrameContentSize(bytes, off, len)
      require(declared == size, s"Dictionary: size $size disagrees with the Zstd frame ($declared)")
      val out = new Array[Byte](size.toInt)
      val got =
        try Zstd.decompressByteArray(out, 0, out.length, bytes, off, len)
        catch { case e: ZstdException => throw new IllegalArgumentException(s"Dictionary: corrupt Zstd frame: ${e.getMessage}", e) }
      require(got == size, s"Dictionary: Zstd frame decoded to $got bytes, expected $size")
      out
    }
  }
}
