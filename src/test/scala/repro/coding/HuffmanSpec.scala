package repro.coding

import java.io.ByteArrayInputStream
import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport

class HuffmanSpec extends AnyFunSuite with PropSupport {

  private def roundtrip(a: Array[Long]): Array[Long] = {
    val freq  = Huffman.frequencies(a)
    val code  = Huffman.build(freq).get
    val table = code.table
    assert(table.length == code.tableBytes)
    val payload = code.encodePayload(freq)
    val dec = new Huffman.Decoder(new ByteArrayInputStream(table))
    dec.decode(new BitReader(payload), a.length)
  }

  private def lengthOf(code: Huffman.Code, s: Long): Int = code.lengths(code.symbols.indexOf(s))

  test("single-symbol alphabet uses 1-bit codes") {
    val a = Array.fill(100)(7L)
    val code = Huffman.build(Huffman.frequencies(a)).get
    assert(lengthOf(code, 7L) == 1)
    assert(roundtrip(a).sameElements(a))
  }

  test("two symbols get 1-bit codes") {
    val a = Array(1L, 2L, 1L, 1L, 2L)
    val code = Huffman.build(Huffman.frequencies(a)).get
    assert(code.lengths.forall(_ == 1))
    assert(roundtrip(a).sameElements(a))
  }

  test("skewed distribution gives shorter code to frequent symbol") {
    val a = Array.fill(1000)(5L) ++ Array(6L, 7L, 8L)
    val code = Huffman.build(Huffman.frequencies(a)).get
    assert(lengthOf(code, 5L) < lengthOf(code, 6L))
    assert(roundtrip(a).sameElements(a))
  }

  test("payload bits near entropy for uniform alphabet") {
    val a = Array.tabulate(1024)(i => (i % 16).toLong)
    val code = Huffman.build(Huffman.frequencies(a)).get
    val freq = Huffman.frequencies(a)
    assert(code.payloadBits(freq) == 1024L * 4) // 16 equal symbols -> 4 bits
  }

  test("negative symbols are supported") {
    val a = Array(-5L, -5L, 3L, -5L, 3L, 9L)
    assert(roundtrip(a).sameElements(a))
  }

  test("canonical codes are prefix-free") {
    val a = Array.tabulate(300)(i => (i % 7).toLong * (i % 3))
    val code = Huffman.build(Huffman.frequencies(a)).get
    val cs = code.symbols.indices.map(k => (code.codes(k), code.lengths(k)))
    for ((c1, l1) <- cs; (c2, l2) <- cs if (c1, l1) != (c2, l2)) {
      val shorter = math.min(l1, l2)
      assert((c1 >>> (l1 - shorter)) != (c2 >>> (l2 - shorter)) || l1 == l2 && c1 != c2,
        "prefix violation")
    }
  }

  test("empty frequency map builds empty code") {
    assert(Huffman.build(Huffman.frequencies(Array.emptyLongArray)).get.lengths.isEmpty)
  }

  test("property: roundtrip random arrays") {
    forAllG(Gen.nonEmptyListOf(Gen.choose(-500L, 500L))) { xs =>
      val a = xs.toArray
      assert(roundtrip(a).sameElements(a))
    }
  }

  test("property: payload bits bounded by n*maxLen and >= n") {
    forAllG(Gen.nonEmptyListOf(Gen.choose(0L, 50L))) { xs =>
      val a = xs.toArray
      val freq = Huffman.frequencies(a)
      val code = Huffman.build(freq).get
      val bits = code.payloadBits(freq)
      assert(bits >= a.length)
      assert(bits <= a.length.toLong * code.maxLen)
    }
  }

  test("large alphabet roundtrip") {
    val a = Array.tabulate(20000)(i => (i % 5000).toLong)
    assert(roundtrip(a).sameElements(a))
  }
}
