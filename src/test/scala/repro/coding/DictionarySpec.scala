package repro.coding

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport

class DictionarySpec extends AnyFunSuite with PropSupport {

  test("empty roundtrip") {
    assert(Dictionary.decompress(Dictionary.compress(Array.emptyByteArray)).isEmpty)
  }

  test("small payload roundtrip") {
    val a = "hello particle".getBytes
    assert(Dictionary.decompress(Dictionary.compress(a)).sameElements(a))
  }

  test("repetitive payload shrinks") {
    val a = Array.fill(100000)(7.toByte)
    assert(Dictionary.compress(a).length < 1000)
  }

  test("incompressible payload grows only slightly") {
    val rng = new java.util.Random(3)
    val a = new Array[Byte](100000)
    rng.nextBytes(a)
    assert(Dictionary.compress(a).length < a.length + 1000)
  }

  test("property: roundtrip random bytes") {
    forAllG(Gen.listOf(Gen.choose(Byte.MinValue, Byte.MaxValue))) { xs =>
      val a = xs.toArray
      assert(Dictionary.decompress(Dictionary.compress(a)).sameElements(a))
    }
  }
  /** A Zstd frame of `content` behind the size prefix `size`. */
  private def withSize(size: Long, content: Array[Byte]): Array[Byte] = {
    val out = new java.io.ByteArrayOutputStream()
    Zigzag.writeVarLong(out, size)
    out.write(com.github.luben.zstd.Zstd.compress(content, 3))
    out.toByteArray
  }

  test("a size prefix that disagrees with the Zstd frame is rejected before allocating") {
    val content = "hello particle".getBytes
    assert(Dictionary.decompress(withSize(content.length.toLong, content)).sameElements(content))
    for (size <- Seq(Int.MaxValue.toLong, 1000000000L, content.length + 1L, 1L, -1L, 1L << 32))
      assertThrows[IllegalArgumentException](Dictionary.decompress(withSize(size, content)))
  }

  test("a corrupted Zstd frame body raises IllegalArgumentException with Zstd's error as its cause") {
    val a    = Array.tabulate(100000)(i => ((i % 251) * (i % 7)).toByte)
    val good = Dictionary.compress(a)
    // Keep the size prefix and the frame header (which carries the content
    // size), overwrite the blocks after them.
    val bad = good.clone()
    java.util.Arrays.fill(bad, 16, bad.length, 0xff.toByte)
    assert(com.github.luben.zstd.Zstd.getFrameContentSize(bad, 3, bad.length - 3) == a.length)
    val e = intercept[IllegalArgumentException](Dictionary.decompress(bad))
    assert(e.getCause.isInstanceOf[com.github.luben.zstd.ZstdException])
  }
}
