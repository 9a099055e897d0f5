package repro.coding

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport

class BitIOSpec extends AnyFunSuite with PropSupport {

  test("empty writer produces empty bytes") {
    assert(new BitWriter().toBytes.isEmpty)
  }

  test("single bit roundtrip") {
    val w = new BitWriter(); w.writeBits(1, 1)
    val r = new BitReader(w.toBytes)
    assert(r.readBits(1) == 1)
  }

  test("zero-width write is a no-op") {
    val w = new BitWriter(); w.writeBits(123, 0)
    assert(w.toBytes.isEmpty)
  }

  test("8-bit values roundtrip at byte boundaries") {
    val w = new BitWriter()
    (0 until 256).foreach(v => w.writeBits(v.toLong, 8))
    val r = new BitReader(w.toBytes)
    (0 until 256).foreach(v => assert(r.readBits(8) == v))
  }

  test("unaligned widths roundtrip") {
    val w = new BitWriter()
    val values = Seq((5L, 3), (100L, 7), (1L, 1), (1023L, 10), (0L, 5), (77L, 13))
    values.foreach { case (v, b) => w.writeBits(v, b) }
    val r = new BitReader(w.toBytes)
    values.foreach { case (v, b) => assert(r.readBits(b) == v) }
  }

  test("64-bit value roundtrip including sign bit") {
    val w = new BitWriter()
    w.writeBits(-1L, 64); w.writeBits(Long.MinValue, 64); w.writeBits(Long.MaxValue, 64)
    val r = new BitReader(w.toBytes)
    assert(r.readBits(64) == -1L)
    assert(r.readBits(64) == Long.MinValue)
    assert(r.readBits(64) == Long.MaxValue)
  }

  test("toBytes pads the written bits with zeros to whole bytes") {
    val w = new BitWriter()
    w.writeBits(3, 2); w.writeBits(1, 9) // 11 000000001
    assert(w.toBytes.sameElements(Array(0xc0, 0x20).map(_.toByte)))
  }

  test("reader rejects overrun") {
    val r = new BitReader(Array[Byte](0x0f))
    r.readBits(8)
    intercept[IllegalArgumentException](r.readBits(1))
  }

  test("writer grows past initial capacity") {
    val w = new BitWriter(1)
    (0 until 10000).foreach(i => w.writeBits(i.toLong & 0xff, 8))
    assert(w.toBytes.length == 10000)
  }

  test("property: random (value, width) sequences roundtrip") {
    val gen = Gen.listOf(for {
      width <- Gen.choose(1, 63)
      v     <- Gen.choose(0L, (1L << width) - 1)
    } yield (v, width))
    forAllG(gen) { pairs =>
      val w = new BitWriter()
      pairs.foreach { case (v, b) => w.writeBits(v, b) }
      val r = new BitReader(w.toBytes)
      pairs.foreach { case (v, b) => assert(r.readBits(b) == v) }
    }
  }

  test("property: masking keeps only low bits") {
    forAllG2(Gen.choose(Long.MinValue, Long.MaxValue), Gen.choose(1, 32)) { (v, b) =>
      val w = new BitWriter(); w.writeBits(v, b)
      val r = new BitReader(w.toBytes)
      assert(r.readBits(b) == (v & ((1L << b) - 1)))
    }
  }
}
