package repro.coding

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport

class FixedLengthSpec extends AnyFunSuite with PropSupport {

  test("width of all-zero array is 0") {
    assert(FixedLength.widthFor(Array(0L, 0L, 0L)) == 0)
  }

  test("width follows max value") {
    assert(FixedLength.widthFor(Array(0L, 7L)) == 3)
    assert(FixedLength.widthFor(Array(8L)) == 4)
  }

  test("negative input rejected") {
    intercept[IllegalArgumentException](FixedLength.widthFor(Array(-1L)))
  }

  test("roundtrip at width 0") {
    val a = Array(0L, 0L, 0L)
    assert(FixedLength.decode(FixedLength.encode(a, 0), 3, 0).sameElements(a))
  }

  test("roundtrip dense values") {
    val a = Array.tabulate(1000)(_.toLong)
    val w = FixedLength.widthFor(a)
    assert(FixedLength.decode(FixedLength.encode(a, w), a.length, w).sameElements(a))
  }

  test("property: roundtrip arbitrary non-negative arrays") {
    forAllG(Gen.listOf(Gen.choose(0L, 1L << 40))) { xs =>
      val a = xs.toArray
      val w = FixedLength.widthFor(a)
      assert(FixedLength.decode(FixedLength.encode(a, w), a.length, w).sameElements(a))
    }
  }
}
