package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

class FrameSpec extends AnyFunSuite with PropSupport {

  private def raw(d: Double) = java.lang.Double.doubleToRawLongBits(d)

  /** `mins` and `valueRange` through Scala's boxed reductions, whose
    * ordering is `java.lang.Double.compare`: −0.0 below 0.0, NaN above
    * everything, the first of equal values kept. */
  private def boxedMins(f: Frame) = if (f.n == 0) (0.0, 0.0, 0.0) else (f.x.min, f.y.min, f.z.min)
  private def boxedRange(f: Frame) =
    if (f.n == 0) 0.0
    else math.max(f.x.max - f.x.min, math.max(f.y.max - f.y.min, f.z.max - f.z.min))

  private def assertExtrema(f: Frame): Unit = {
    val (ax, ay, az) = f.mins
    val (ex, ey, ez) = boxedMins(f)
    assert(Seq(ax, ay, az).map(raw) == Seq(ex, ey, ez).map(raw), s"mins of ${f.x.toSeq}, ${f.y.toSeq}, ${f.z.toSeq}")
    // Java leaves the payload of a NaN that arithmetic or `Math.max`
    // returns unspecified (the JIT's `Math.max` intrinsic may pick another
    // NaN than the interpreter), so a NaN range is compared as NaN.
    assert(java.lang.Double.doubleToLongBits(f.valueRange) == java.lang.Double.doubleToLongBits(boxedRange(f)),
      s"valueRange of ${f.x.toSeq}, ${f.y.toSeq}, ${f.z.toSeq}")
  }

  private val odd = Seq(0.0, -0.0, Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN,
    java.lang.Double.longBitsToDouble(0x7ff0000000000001L), java.lang.Double.longBitsToDouble(0xfff8000000000000L),
    Double.MinPositiveValue, -Double.MaxValue, 1.5, -1.5)

  test("mins and valueRange equal the boxed min/max reductions on signed zeros, infinities and NaN") {
    val cases = Seq(
      Array(0.0, -0.0), Array(-0.0, 0.0), Array(0.0), Array(-0.0), Array(Double.NaN), Array(1.0),
      Array(Double.PositiveInfinity, Double.NegativeInfinity), Array(Double.NaN, 1.0, -0.0, 0.0),
      Array(1.0, Double.NaN, odd(5)), Array(odd(6), Double.NaN), Array(-0.0, 0.0, -0.0, 0.0))
    for (x <- cases; y <- cases.take(3)) assertExtrema(Frame(x, x.reverse, Array.fill(x.length)(y(0))))
    assertExtrema(Frame.empty)
  }

  test("property: mins and valueRange equal the boxed min/max reductions") {
    val value = Gen.frequency(1 -> Gen.oneOf(odd), 1 -> Gen.choose(-1e3, 1e3))
    val frame = for {
      n <- Gen.choose(1, 12)
      x <- Gen.listOfN(n, value); y <- Gen.listOfN(n, value); z <- Gen.listOfN(n, value)
    } yield Frame(x.toArray, y.toArray, z.toArray)
    checkProp(org.scalacheck.Prop.forAll(frame) { f => assertExtrema(f); true }, minTests = 500)
  }
}
