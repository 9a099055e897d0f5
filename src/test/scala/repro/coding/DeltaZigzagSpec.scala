package repro.coding

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport

class DeltaZigzagSpec extends AnyFunSuite with PropSupport {

  test("zigzag maps small signed to small unsigned") {
    assert(Zigzag.encode(0) == 0)
    assert(Zigzag.encode(-1) == 1)
    assert(Zigzag.encode(1) == 2)
    assert(Zigzag.encode(-2) == 3)
    assert(Zigzag.encode(2) == 4)
  }

  test("zigzag handles Long extremes") {
    assert(Zigzag.decode(Zigzag.encode(Long.MaxValue)) == Long.MaxValue)
    assert(Zigzag.decode(Zigzag.encode(Long.MinValue)) == Long.MinValue)
  }

  test("property: zigzag roundtrip") {
    forAllG(Gen.choose(Long.MinValue, Long.MaxValue)) { v => assert(Zigzag.decode(Zigzag.encode(v)) == v) }
  }

  test("varint roundtrip on boundaries") {
    val out = new java.io.ByteArrayOutputStream()
    val vals = Seq(0L, 1L, 127L, 128L, 16383L, 16384L, Long.MaxValue)
    vals.foreach(Zigzag.writeVarLong(out, _))
    val in = new java.io.ByteArrayInputStream(out.toByteArray)
    vals.foreach(v => assert(Zigzag.readVarLong(in) == v))
  }

  private def readVarint(bytes: Seq[Int]): Long =
    Zigzag.readVarLong(new java.io.ByteArrayInputStream(bytes.map(_.toByte).toArray))

  test("the 10-byte varint of -1 roundtrips") {
    val out = new java.io.ByteArrayOutputStream()
    Zigzag.writeVarLong(out, -1L)
    val bytes = out.toByteArray.toSeq.map(_ & 0xff)
    assert(bytes == Seq.fill(9)(0xff) :+ 1)
    assert(readVarint(bytes) == -1L)
  }

  test("a varint longer than 10 bytes is rejected, not wrapped") {
    // Unchecked, the 11th byte's shift wraps mod 64 and this reads as 69.
    intercept[IllegalArgumentException](readVarint(0x85 +: Seq.fill(9)(0x80) :+ 0x01))
  }

  test("a 10th varint byte above 1 is rejected, not wrapped") {
    // Unchecked, the bits past 63 fall off and this reads as 5.
    intercept[IllegalArgumentException](readVarint(0x85 +: Seq.fill(8)(0x80) :+ 0x7e))
  }

  test("varint single byte for < 128") {
    val out = new java.io.ByteArrayOutputStream()
    Zigzag.writeVarLong(out, 127)
    assert(out.size() == 1)
  }

  test("bitWidth") {
    assert(Zigzag.bitWidth(0) == 0)
    assert(Zigzag.bitWidth(1) == 1)
    assert(Zigzag.bitWidth(255) == 8)
    assert(Zigzag.bitWidth(256) == 9)
  }

  test("property: varint roundtrip for non-negative longs") {
    forAllG(Gen.choose(0L, Long.MaxValue)) { v =>
      val out = new java.io.ByteArrayOutputStream()
      Zigzag.writeVarLong(out, v)
      assert(Zigzag.readVarLong(new java.io.ByteArrayInputStream(out.toByteArray)) == v)
    }
  }
}
