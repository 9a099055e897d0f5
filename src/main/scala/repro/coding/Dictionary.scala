package repro.coding

import com.github.luben.zstd.Zstd

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

  /** Inverse of [[compress]]. The size prefix comes from the input, so it
    * must agree with the content size the Zstd frame declares before the
    * output is allocated. */
  def decompress(bytes: Array[Byte]): Array[Byte] = {
    val in   = new java.io.ByteArrayInputStream(bytes)
    val size = Zigzag.readVarLong(in)
    val rest = in.readAllBytes()
    require(size >= 0 && size <= Int.MaxValue, s"Dictionary: bad size $size")
    if (size == 0) Array.emptyByteArray
    else {
      require(Zstd.getFrameContentSize(rest) == size,
        s"Dictionary: size $size disagrees with the Zstd frame (${Zstd.getFrameContentSize(rest)})")
      Zstd.decompress(rest, size.toInt)
    }
  }
}
