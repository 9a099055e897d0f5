package repro.coding

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import org.scalatest.funsuite.AnyFunSuite

/** The shared container framing: sections, frame bodies, section lists
  * and checked counts. */
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

  private val sections = Seq(Array[Byte](1, 2, 3), Array.emptyByteArray, Array.fill[Byte](300)(7))

  private def written(write: ByteArrayOutputStream => Unit): Array[Byte] = {
    val out = new ByteArrayOutputStream()
    write(out)
    out.toByteArray
  }

  private def varint(v: Long): Array[Byte] = written(Zigzag.writeVarLong(_, v))

  test("frame body: the sections as sections, Zstd-compressed once, as one section") {
    val body = written(out => sections.foreach(ByteIO.writeSection(out, _)))
    assert(written(ByteIO.writeBody(_, sections: _*)).sameElements(
      written(ByteIO.writeSection(_, Dictionary.compress(body)))))
  }

  test("frame body roundtrip") {
    val in = new ByteArrayInputStream(written(ByteIO.writeBody(_, sections: _*)))
    val back = ByteIO.readBody(in, sections.size)
    assert(back.length == sections.size)
    back.zip(sections).foreach { case (a, b) => assert(a.sameElements(b)) }
    assert(in.available() == 0)
  }

  test("frame body read with the wrong section count is rejected") {
    val bytes = written(ByteIO.writeBody(_, sections: _*))
    intercept[IllegalArgumentException](ByteIO.readBody(new ByteArrayInputStream(bytes), sections.size + 1))
    intercept[IllegalArgumentException](ByteIO.readBody(new ByteArrayInputStream(bytes), sections.size - 1))
  }

  test("section list roundtrip") {
    val in   = new ByteArrayInputStream(written(ByteIO.writeSections(_, sections)))
    val back = ByteIO.readSections(in)
    assert(back.size == sections.size)
    back.zip(sections).foreach { case (a, b) => assert(a.sameElements(b)) }
    assert(ByteIO.readSections(new ByteArrayInputStream(written(ByteIO.writeSections(_, Nil)))).isEmpty)
  }

  test("section list count above the bytes remaining is rejected") {
    // 2^32 would read as 0 sections and 2^32 + 1 as 1 if truncated to an Int.
    for (count <- Seq(1L << 32, (1L << 32) + 1, 3L, Long.MaxValue, -1L)) {
      val bytes = varint(count) ++ Array[Byte](0, 0)
      intercept[IllegalArgumentException](ByteIO.readSections(new ByteArrayInputStream(bytes)))
    }
  }

  test("checked counts reject values outside [0, max]") {
    def read(v: Long, max: Long) = ByteIO.readCount(new ByteArrayInputStream(varint(v)), max, "count")
    assert(read(0, 0) == 0)
    assert(read(Int.MaxValue, Int.MaxValue) == Int.MaxValue)
    intercept[IllegalArgumentException](read(6, 5))
    intercept[IllegalArgumentException](read(Int.MaxValue + 1L, Int.MaxValue))
    intercept[IllegalArgumentException](read(-1L, Int.MaxValue))
  }
}
