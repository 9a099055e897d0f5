package repro.coding

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import org.scalatest.funsuite.AnyFunSuite

class ByteIOSpec extends AnyFunSuite {

  private def sectionWithLength(len: Long, body: Int): ByteArrayInputStream = {
    val out = new ByteArrayOutputStream()
    Zigzag.writeVarLong(out, len)
    out.write(new Array[Byte](body))
    new ByteArrayInputStream(out.toByteArray)
  }

  test("a section length that is negative as an Int is rejected") {
    // FF FF FF FF 0F is 0xFFFFFFFF, i.e. -1 once narrowed to an Int.
    val in = new ByteArrayInputStream(Array(0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3).map(_.toByte))
    assertThrows[IllegalArgumentException](ByteIO.readSection(in))
    assertThrows[IllegalArgumentException](ByteIO.readSection(sectionWithLength(-5L, 16)))
  }

  test("a section length beyond the remaining bytes is rejected before allocating") {
    assertThrows[IllegalArgumentException](ByteIO.readSection(sectionWithLength(Int.MaxValue - 8L, 16)))
    assertThrows[IllegalArgumentException](ByteIO.readSection(sectionWithLength(17L, 16)))
    assert(ByteIO.readSection(sectionWithLength(16L, 16)).length == 16)
  }
}
