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
