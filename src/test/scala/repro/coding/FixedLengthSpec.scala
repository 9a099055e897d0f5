package repro.coding

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport

class FixedLengthSpec extends AnyFunSuite with PropSupport {

  private def width(a: Array[Long]): Int = FixedLength.widthOfOr(a.foldLeft(0L)(_ | _))

  test("width of all-zero array is 0") {
    assert(FixedLength.widthOfOr(0L | 0L | 0L) == 0)
  }

  test("width follows max value") {
    assert(FixedLength.widthOfOr(0L | 7L) == 3)
    assert(FixedLength.widthOfOr(8L) == 4)
  }

  test("negative input rejected") {
    intercept[IllegalArgumentException](FixedLength.widthOfOr(-1L))
  }

  test("roundtrip at width 0") {
    val a = Array(0L, 0L, 0L)
    assert(FixedLength.decode(FixedLength.encode(a, 0), 3, 0).sameElements(a))
  }

  test("roundtrip dense values") {
    val a = Array.tabulate(1000)(_.toLong)
    val w = width(a)
    assert(FixedLength.decode(FixedLength.encode(a, w), a.length, w).sameElements(a))
  }

  test("property: roundtrip arbitrary non-negative arrays") {
    forAllG(Gen.listOf(Gen.choose(0L, 1L << 40))) { xs =>
      val a = xs.toArray
      val w = width(a)
      assert(FixedLength.decode(FixedLength.encode(a, w), a.length, w).sameElements(a))
    }
  }

  test("encode equals BitWriter writing each value at the width, for every width 0..64") {
    val rng = new java.util.Random(23)
    for (w <- 0 to 64; n <- Seq(0, 1, 7, 8, 9, rng.nextInt(300))) {
      val a      = Array.fill(n)(rng.nextLong())
      val writer = new BitWriter()
      a.foreach(writer.writeBits(_, w))
      assert(FixedLength.encode(a, w).sameElements(writer.toBytes), s"width $w, $n values")
    }
  }
}
