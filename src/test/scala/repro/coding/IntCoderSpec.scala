package repro.coding

import java.io.ByteArrayInputStream
import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport

class IntCoderSpec extends AnyFunSuite with PropSupport {

  private def roundtrip(a: Array[Long], delta: Boolean = true): Array[Long] =
    IntCoder.decode(new ByteArrayInputStream(IntCoder.encode(a, delta)))

  test("empty array roundtrip") {
    assert(roundtrip(Array.emptyLongArray).isEmpty)
  }

  test("singleton roundtrip") {
    assert(roundtrip(Array(123456789L)).sameElements(Array(123456789L)))
  }

  test("monotone run roundtrip (delta-friendly)") {
    val a = Array.tabulate(5000)(i => 1000L + i)
    assert(roundtrip(a).sameElements(a))
  }

  test("negative values roundtrip") {
    val a = Array(-10L, 20L, -30L, 40L)
    assert(roundtrip(a).sameElements(a))
    assert(roundtrip(a, delta = false).sameElements(a))
  }

  test("delta=false roundtrip") {
    val a = Array.tabulate(1000)(i => (i * 31 % 97).toLong)
    assert(roundtrip(a, delta = false).sameElements(a))
  }

  test("constant array compresses far below fixed 8 bytes per value") {
    val a = Array.fill(10000)(42L)
    // Huffman floor is 1 bit/symbol; the chain's Zstd stage (applied by the
    // codecs over concatenated sections) removes the residual redundancy.
    val preZstd = IntCoder.encode(a)
    assert(preZstd.length < 10000 / 4)
    assert(Dictionary.compress(preZstd).length < 200)
  }

  test("monotone run much smaller than random") {
    val rng = new java.util.Random(1)
    val mono = Array.tabulate(10000)(i => i.toLong * 3)
    val rand = Array.fill(10000)(rng.nextLong() >>> 20)
    assert(IntCoder.encode(mono).length < IntCoder.encode(rand).length / 4)
  }

  test("property: a plan's size is its packed length and the smaller method cost, fixed on a tie") {
    val arrays = for {
      n     <- Gen.choose(0, 3000)
      bits  <- Gen.choose(0, 40)
      seed  <- Gen.choose(0L, 1000000L)
      delta <- Gen.oneOf(true, false)
    } yield {
      val rng = new java.util.Random(seed)
      (Array.fill(n)(if (bits == 0) 0L else (rng.nextGaussian() * (1L << bits)).toLong), delta)
    }
    forAllG(arrays) { case (a, delta) =>
      val plan   = IntCoder.plan(a, delta)
      val packed = plan.pack()
      val (fixed, huffman) = IntCoder.methodCosts(a, delta)
      assert(plan.size == packed.length)
      assert(plan.size == huffman.filter(_ < fixed).getOrElse(fixed))
      assert(packed.sameElements(IntCoder.encode(a, delta)))
    }
  }

  test("methodCosts: huffman wins on skewed data") {
    val a = Array.fill(5000)(0L) ++ Array.tabulate(50)(_.toLong * 1000)
    val (fixed, huff) = IntCoder.methodCosts(a, delta = false)
    assert(huff.isDefined && huff.get < fixed)
  }

  test("methodCosts: fixed wins on dense uniform data") {
    // Uniform over a power-of-two alphabet: Huffman cannot beat fixed width
    // and pays its table; paper Table 3 shows this regime on Copper.
    val rng = new java.util.Random(7)
    val a = Array.fill(4096)((rng.nextInt(256)).toLong)
    val (fixed, huff) = IntCoder.methodCosts(a, delta = false)
    assert(fixed <= huff.getOrElse(Long.MaxValue) + 300) // within table overhead
  }

  test("encodeForced both methods roundtrip identically") {
    val a = Array.tabulate(2000)(i => (i % 37).toLong - 18)
    val viaH = IntCoder.decode(new ByteArrayInputStream(IntCoder.encodeForced(a, delta = true, useHuffman = true)))
    val viaF = IntCoder.decode(new ByteArrayInputStream(IntCoder.encodeForced(a, delta = true, useHuffman = false)))
    assert(viaH.sameElements(a) && viaF.sameElements(a))
  }

  test("property: roundtrip with delta") {
    forAllG(Gen.listOf(Gen.choose(-100000L, 100000L))) { xs =>
      val a = xs.toArray
      assert(roundtrip(a).sameElements(a))
    }
  }

  test("property: roundtrip without delta") {
    forAllG(Gen.listOf(Gen.choose(-100000L, 100000L))) { xs =>
      val a = xs.toArray
      assert(roundtrip(a, delta = false).sameElements(a))
    }
  }

  test("property: large-magnitude values survive") {
    forAllG(Gen.listOf(Gen.oneOf(Gen.choose(Long.MinValue / 4, Long.MaxValue / 4), Gen.const(0L)))) { xs =>
      val a = xs.toArray
      assert(roundtrip(a, delta = false).sameElements(a))
    }
  }
  /** Arrays over small, wide, mixed-magnitude and near-limit alphabets. */
  private val codedArrays: Gen[Array[Long]] = Gen.oneOf(
    Gen.listOf(Gen.choose(-20L, 20L)),
    Gen.listOf(Gen.choose(-100000L, 100000L)),
    Gen.listOf(Gen.oneOf(Gen.choose(Long.MinValue / 4, Long.MaxValue / 4), Gen.choose(-3L, 3L))),
    for { k <- Gen.choose(4000, 4200); extra <- Gen.choose(0, 20000); seed <- Gen.choose(0L, 1000L) } yield {
      val rng = new java.util.Random(seed)
      List.tabulate(k + extra)(i => if (i < k) i * 7919L else rng.nextInt(16).toLong)
    }).map(_.toArray)

  test("property: encode picks what methodCosts says, and matches encodeForced of that choice") {
    val arrays = Gen.frequency(1 -> Gen.const(Array.emptyLongArray), 9 -> codedArrays)
    forAllG2(arrays, Gen.oneOf(true, false)) { (a, delta) =>
      val (fixed, huff) = IntCoder.methodCosts(a, delta)
      val useHuffman    = huff.exists(_ < fixed)
      val enc           = IntCoder.encode(a, delta)
      assert(((enc(0) & 2) != 0) == useHuffman)
      assert(enc.sameElements(IntCoder.encodeForced(a, delta, useHuffman)))
      // The costs are the encoded sizes, empty arrays included.
      assert(IntCoder.encodeForced(a, delta, useHuffman = false).length == fixed)
      huff.foreach(h => assert(IntCoder.encodeForced(a, delta, useHuffman = true).length == h))
    }
  }

  test("codes >= 2^63 are rejected by fixed-length coding") {
    val a = Array(Long.MinValue, 0L, 5L)
    for (delta <- Seq(false, true)) {
      intercept[IllegalArgumentException](IntCoder.encode(a, delta))
      intercept[IllegalArgumentException](IntCoder.methodCosts(a, delta))
      intercept[IllegalArgumentException](IntCoder.encodeForced(a, delta, useHuffman = false))
    }
  }

  private def bytes(xs: Int*): ByteArrayInputStream = new ByteArrayInputStream(xs.map(_.toByte).toArray)

  test("a Huffman count beyond 8 symbols per payload byte is rejected before allocating") {
    // flags = huffman, count 2^30, table {0 -> 1 bit}, a 1-byte payload: 11 bytes.
    val in = bytes(2, 0x80, 0x80, 0x80, 0x80, 0x04, 1, 0, 1, 1, 0)
    assertThrows[IllegalArgumentException](IntCoder.decode(in))
  }

  test("a Huffman table count beyond the remaining bytes is rejected before allocating") {
    // flags = huffman, count 1, table count 2^30.
    assertThrows[IllegalArgumentException](IntCoder.decode(bytes(2, 1, 0x80, 0x80, 0x80, 0x80, 0x04, 0, 1)))
  }

  test("fixed-length widths above 64 and counts beyond the payload are rejected") {
    // flags = fixed, count 1, width 65.
    assertThrows[IllegalArgumentException](IntCoder.decode(bytes(0, 1, 65, 1, 0)))
    // count 2^30 of 8 bits in a 1-byte payload.
    assertThrows[IllegalArgumentException](IntCoder.decode(bytes(0, 0x80, 0x80, 0x80, 0x80, 0x04, 8, 1, 0)))
    // A count that does not fit an Int.
    assertThrows[IllegalArgumentException](IntCoder.decode(bytes(0, 0x80, 0x80, 0x80, 0x80, 0x10, 8, 1, 0)))
  }

  test("width-0 arrays decode at their declared count") {
    val a = Array.fill(100000)(0L)
    assert(roundtrip(a, delta = false).sameElements(a))
    assert(IntCoder.decode(bytes(0, 0xa0, 0x8d, 0x06, 0, 0)).length == 100000)
  }

  test("a Huffman array with an empty table is rejected") {
    // flags = huffman, count 1, table count 0, a 1-byte payload.
    assertThrows[IllegalArgumentException](IntCoder.decode(bytes(2, 1, 0, 1, 0)))
  }

  test("a count above the caller's bound is rejected before allocating") {
    // flags = fixed, count 2^31 - 1, width 0, an empty payload.
    val width0 = Array(0, 0xff, 0xff, 0xff, 0xff, 0x07, 0, 0)
    assertThrows[IllegalArgumentException](IntCoder.decode(bytes(width0: _*), maxCount = 100))
    assert(IntCoder.decode(bytes(0, 100, 0, 0), maxCount = 100).length == 100)
    assertThrows[IllegalArgumentException](IntCoder.decode(bytes(0, 101, 0, 0), maxCount = 100))
  }

  test("bytes after an array's payload are rejected") {
    val rng  = new java.util.Random(17)
    val q    = Array.fill(300)(rng.nextInt(9).toLong - 4)
    val prev = Array.fill(300)(0.0)
    for (a <- Seq(Array.emptyLongArray, q); useHuffman <- Seq(true, false)) {
      val coded = IntCoder.encodeForced(a, delta = false, useHuffman)
      assert(IntCoder.decode(new ByteArrayInputStream(coded)).sameElements(a))
      val padded = coded ++ Array[Byte](0, 1, 2)
      assertThrows[IllegalArgumentException](IntCoder.decode(new ByteArrayInputStream(padded)))
      val p = prev.take(a.length)
      assert(IntCoder.decodeResiduals(new ByteArrayInputStream(coded), p, _.toDouble).length == a.length)
      assertThrows[IllegalArgumentException](IntCoder.decodeResiduals(new ByteArrayInputStream(padded), p, _.toDouble))
    }
  }
}
