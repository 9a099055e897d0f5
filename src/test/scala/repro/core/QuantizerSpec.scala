package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{BadHeaders, PropSupport, TestFrames}
import repro.core.Quantizer.QFrame
import repro.metrics.Metrics

class QuantizerSpec extends AnyFunSuite with PropSupport {

  /** Reference reconstruction of a whole frame by Eq. 5, dimension by
    * dimension; the codecs dequantize inside their own decode passes. */
  private def dequantize(qf: QFrame): Frame = Frame(
    Quantizer.dequantizeArray(qf.qx, qf.minX, qf.eb),
    Quantizer.dequantizeArray(qf.qy, qf.minY, qf.eb),
    Quantizer.dequantizeArray(qf.qz, qf.minZ, qf.eb))

  test("quantize/dequantize stays within eb for simple values") {
    val eb = 0.1
    for (d <- Seq(0.0, 0.05, 0.1, 0.15, 1.0, 3.14159, 99.999)) {
      val q = Quantizer.quantize(d, 0.0, eb)
      assert(Metrics.withinBound(math.abs(Quantizer.dequantize(q, 0.0, eb) - d), eb), s"d=$d")
    }
  }

  test("min value maps to bin 0 and reconstructs at min+eb") {
    val q = Quantizer.quantize(5.0, 5.0, 0.25)
    assert(q == 0)
    assert(Quantizer.dequantize(q, 5.0, 0.25) == 5.25)
  }

  test("negative coordinates supported via min shift") {
    val eb = 0.01
    val d  = -123.456
    val q  = Quantizer.quantize(d, -200.0, eb)
    assert(q >= 0)
    assert(Metrics.withinBound(math.abs(Quantizer.dequantize(q, -200.0, eb) - d), eb))
  }

  test("bin-edge values respect the bound despite fp rounding") {
    val eb = 0.1
    // Values engineered near bin edges: k*2*eb for many k.
    for (k <- 0 until 1000) {
      val d = k * 2 * eb
      val q = Quantizer.quantize(d, 0.0, eb)
      assert(Metrics.withinBound(math.abs(Quantizer.dequantize(q, 0.0, eb) - d), eb), s"k=$k")
    }
  }

  test("huge eb collapses everything to one bin") {
    val f  = TestFrames.bunny(100)
    val qf = Quantizer.quantizeFrame(f, 1e6)
    assert(qf.qx.forall(_ == 0))
  }

  test("tiny eb is near-lossless") {
    val f  = TestFrames.bunny(100)
    val qf = Quantizer.quantizeFrame(f, 1e-12)
    val r  = dequantize(qf)
    (0 until f.n).foreach(i => assert(Metrics.withinBound(math.abs(r.x(i) - f.x(i)), 1e-12)))
  }

  test("zero eb rejected") {
    intercept[IllegalArgumentException](Quantizer.quantizeFrame(TestFrames.bunny(10), 0.0))
  }

  test("requireBound rejects a bound that is not finite and above 0, naming it, and quantizeFrame applies it") {
    for (eb <- BadHeaders.Ebs :+ Double.NegativeInfinity) {
      val e = intercept[IllegalArgumentException](Quantizer.requireBound(eb, "test bound"))
      assert(e.getMessage.contains(s"test bound must be finite and > 0, got $eb"), e.getMessage)
      withClue(s"eb = $eb")(intercept[IllegalArgumentException](Quantizer.quantizeFrame(TestFrames.bunny(10), eb)))
    }
    for (eb <- Seq(Double.MinPositiveValue, 1e-2, Double.MaxValue)) assert(Quantizer.requireBound(eb, "test bound") == eb)
  }

  test("empty frame quantizes to empty") {
    val qf = Quantizer.quantizeFrame(Frame.empty, 0.1)
    assert(qf.n == 0 && dequantize(qf).n == 0)
  }

  test("quantizeFrame bins are non-negative") {
    val f  = TestFrames.hacc(500)
    val qf = Quantizer.quantizeFrame(f, 0.05)
    assert(qf.qx.forall(_ >= 0) && qf.qy.forall(_ >= 0) && qf.qz.forall(_ >= 0))
  }

  test("property: the error bound holds for every dataset frame and eb") {
    for ((name, f) <- TestFrames.oneOfEach; eb <- Seq(1e-1, 1e-2, 1e-3)) {
      val r = dequantize(Quantizer.quantizeFrame(f, eb))
      var i = 0
      while (i < f.n) {
        assert(Metrics.withinBound(math.abs(r.x(i) - f.x(i)), eb), s"$name x($i) eb=$eb")
        assert(Metrics.withinBound(math.abs(r.y(i) - f.y(i)), eb), s"$name y($i) eb=$eb")
        assert(Metrics.withinBound(math.abs(r.z(i) - f.z(i)), eb), s"$name z($i) eb=$eb")
        i += 1
      }
    }
  }

  test("property: random frames respect bound") {
    forAllG2(TestFrames.frameGen, TestFrames.ebGen) { (f, eb) =>
      val r = dequantize(Quantizer.quantizeFrame(f, eb))
      var i = 0
      while (i < f.n) {
        assert(Metrics.withinBound(math.abs(r.x(i) - f.x(i)), eb))
        i += 1
      }
    }
  }
}
