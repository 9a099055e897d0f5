package repro.coding

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
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
    // The decoder yields zigzag-decoded symbols, the form IntCoder needs.
    new Huffman.Decoder(new ByteArrayInputStream(table)).decode(payload, a.length).map(Zigzag.encode)
  }

  /** A serialized table of (symbol, code length) entries, in the given order. */
  private def table(entries: (Long, Int)*): ByteArrayInputStream = {
    val out = new ByteArrayOutputStream()
    Zigzag.writeVarLong(out, entries.size.toLong)
    entries.foreach { case (s, l) => Zigzag.writeVarLong(out, s); out.write(l) }
    new ByteArrayInputStream(out.toByteArray)
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

  test("property: the first-occurrence order of tied symbols changes neither payload bits nor table bytes") {
    // Weights 1-4 tie most symbols with others, and ties merge in first-
    // occurrence order: each seed orders the symbols' runs differently.
    val weights = Gen.choose(2, 60).flatMap(Gen.listOfN(_, Gen.choose(1, 4)))
    forAllG2(weights, Gen.choose(0L, 1000L)) { (ws, seed) =>
      val runs = ws.zipWithIndex.map { case (w, s) => Array.fill(w)(s * 37L - 500) }
      def sizes(a: Array[Long]): (Long, Int) = {
        val freq = Huffman.frequencies(a)
        val code = Huffman.build(freq).get
        (code.payloadBits(freq), code.tableBytes)
      }
      val permuted = new scala.util.Random(seed).shuffle(runs).flatten.toArray
      assert(sizes(permuted) == sizes(runs.flatten.toArray))
      assert(roundtrip(permuted).sameElements(permuted))
    }
  }

  test("large alphabet roundtrip") {
    val a = Array.tabulate(20000)(i => (i % 5000).toLong)
    assert(roundtrip(a).sameElements(a))
  }

  test("codes longer than the lookup window decode through the canonical walk") {
    // Fibonacci counts give one code per length up to about 25 bits.
    val fib = Iterator.iterate((1, 1)) { case (a, b) => (b, a + b) }.map(_._1).take(25).toArray
    val a   = Array.tabulate(25)(k => Array.fill(fib(k))(k.toLong * 3 - 30)).flatten
    val rng = new java.util.Random(5)
    for (i <- a.indices.reverse) { val j = rng.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t }
    assert(Huffman.build(Huffman.frequencies(a)).get.maxLen > Huffman.Decoder.TableBits)
    assert(roundtrip(a).sameElements(a))
  }

  test("a payload too short for its symbols is rejected, never read past its end") {
    val a    = Array.tabulate(5000)(i => (i % 37).toLong)
    val freq = Huffman.frequencies(a)
    val code = Huffman.build(freq).get
    val full = code.encodePayload(freq)
    for (cut <- Seq(1, 2, 9, full.length / 2)) {
      val dec = new Huffman.Decoder(new ByteArrayInputStream(code.table))
      assertThrows[IllegalArgumentException](dec.decode(full.dropRight(cut), a.length))
    }
  }

  test("a table whose code lengths are out of order is rejected") {
    assertThrows[IllegalArgumentException](new Huffman.Decoder(table(0L -> 3, 1L -> 1)))
  }

  test("an oversubscribed table (Kraft sum > 1) is rejected") {
    assertThrows[IllegalArgumentException](new Huffman.Decoder(table(0L -> 1, 1L -> 1, 2L -> 1)))
    assertThrows[IllegalArgumentException](new Huffman.Decoder(table(0L -> 1, 1L -> 2, 2L -> 2, 3L -> 2)))
  }

  test("a table whose symbols are out of canonical order within a length is rejected") {
    assertThrows[IllegalArgumentException](new Huffman.Decoder(table(5L -> 1, 3L -> 1)))
    assertThrows[IllegalArgumentException](new Huffman.Decoder(table(3L -> 1, 3L -> 1)))
  }

  test("property: encodePayload equals BitWriter writing each codeword in turn") {
    forAllG(Gen.nonEmptyListOf(Gen.frequency(8 -> Gen.choose(-4L, 4L), 1 -> Gen.choose(-1L << 40, 1L << 40)))) { xs =>
      val a      = xs.toArray
      val h      = Huffman.frequencies(a)
      val code   = Huffman.build(h).get
      val writer = new BitWriter()
      a.foreach { s =>
        val k = code.symbols.indexOf(s)
        writer.writeBits(code.codes(k), code.lengths(k))
      }
      assert(code.encodePayload(h).sameElements(writer.toBytes))
    }
  }
}
