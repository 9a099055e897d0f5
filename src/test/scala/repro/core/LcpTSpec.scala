package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.{BadHeaders, PropSupport, TestFrames}
import repro.coding.{ByteIO, Zigzag}
import repro.metrics.Metrics

class LcpTSpec extends AnyFunSuite with PropSupport {

  test("temporal roundtrip within bound against exact previous frame") {
    val frames = TestFrames.copper(1000, 2)
    val eb = 0.01
    // Use frame 0's quantized reconstruction as basis, as LCP does.
    val s  = LcpS.compress(frames(0), eb, 64)
    val f1 = frames(1).reorder(s.perm)
    val t  = LcpT.compress(f1, s.recon, eb)
    val d  = LcpT.decompress(t.bytes, s.recon)
    assert(Metrics.withinBound(Metrics.maxAbsError(f1, d, null), eb))
  }

  test("decompressed equals compressor-side reconstruction bit-exactly") {
    val frames = TestFrames.helium(800, 2)
    val s = LcpS.compress(frames(0), 0.05, 32)
    val t = LcpT.compress(frames(1).reorder(s.perm), s.recon, 0.05)
    val d = LcpT.decompress(t.bytes, s.recon)
    (0 until d.n).foreach { i =>
      assert(d.x(i) == t.recon.x(i) && d.y(i) == t.recon.y(i) && d.z(i) == t.recon.z(i))
    }
  }

  test("high temporal correlation yields tiny diffs (smaller than LCP-S)") {
    val frames = TestFrames.copper(3000, 2)
    val eb = 0.05 // larger than the 0.02 per-frame walk step: diffs ~ 1 bin
    val s0 = LcpS.compress(frames(0), eb, 64)
    val t  = LcpT.compress(frames(1).reorder(s0.perm), s0.recon, eb)
    val s1 = LcpS.compress(frames(1), eb, 64)
    assert(t.bytes.length < s1.bytes.length,
      s"temporal ${t.bytes.length} should beat spatial ${s1.bytes.length} on coherent frames")
  }

  test("uncorrelated frames produce large temporal output") {
    val a = TestFrames.bunny(2000)
    val b = TestFrames.hacc(2000) // completely different geometry
    val sA = LcpS.compress(a, 0.01, 64)
    val t  = LcpT.compress(b.reorder(sA.perm), sA.recon, 0.01)
    val sB = LcpS.compress(b, 0.01, 64)
    assert(t.bytes.length > sB.bytes.length / 2, "temporal should not win on unrelated frames")
  }

  test("chained temporal frames stay within bound") {
    val frames = TestFrames.lj(800, 5)
    val eb = 0.02
    val s = LcpS.compress(frames(0), eb, 64)
    var basis = s.recon
    for (k <- 1 until 5) {
      val aligned = frames(k).reorder(s.perm)
      val t = LcpT.compress(aligned, basis, eb)
      val d = LcpT.decompress(t.bytes, basis)
      assert(Metrics.withinBound(Metrics.maxAbsError(aligned, d, null), eb), s"frame $k")
      basis = d
    }
  }

  test("property: the perm-taking compress equals compress of the reordered frame, in bytes and recon bits") {
    val cases = for { f <- TestFrames.frameGen; eb <- TestFrames.ebGen; seed <- Gen.choose(0L, 1000000L) } yield (f, eb, seed)
    forAllG(cases) { case (f, eb, seed) =>
      val rng  = new scala.util.Random(seed)
      val perm = rng.shuffle(Vector.range(0, f.n)).toArray
      val aligned = f.reorder(perm)
      val noisy   = (a: Array[Double]) => a.map(_ + rng.nextGaussian() * 3 * eb)
      val basis   = Frame(noisy(aligned.x), noisy(aligned.y), noisy(aligned.z))
      val fused   = LcpT.compress(f, perm, basis, eb)
      val ref     = LcpT.compress(aligned, basis, eb)
      assert(fused.bytes.sameElements(ref.bytes))
      val bits = (r: Frame) => Seq(r.x, r.y, r.z).map(_.map(java.lang.Double.doubleToRawLongBits).toSeq)
      assert(bits(fused.recon) == bits(ref.recon))
    }
  }

  /** One LCP-T chain over `frames`: frame 0 by LCP-S at block size `p`,
    * then every later frame a trial against its predecessor's
    * reconstruction. Each trial's `maxBytes` bounds its packed frame, and
    * both packings write the bytes of `compress`. */
  private def checkTrialBounds(frames: IndexedSeq[Frame], eb: Double, p: Int): Unit = {
    val s = LcpS.compress(frames.head, eb, p)
    frames.tail.foldLeft(s.recon) { (basis, f) =>
      val t      = LcpT.trial(f, s.perm, basis, eb)
      val packed = t.pack()
      assert(t.maxBytes >= packed.length, s"eb $eb: bound ${t.maxBytes} below the packed ${packed.length} B")
      assert(t.packHere().sameElements(packed))
      assert(LcpT.compress(f, s.perm, basis, eb).bytes.sameElements(packed))
      t.recon
    }
  }

  test("a trial's maxBytes bounds its packed frame: four generators at eb 1e-1, 1e-2 and 1e-3") {
    for (frames <- Seq(TestFrames.copper(1000, 6), TestFrames.helium(1000, 6), TestFrames.lj(1000, 6),
                       TestFrames.yiip(1000, 6));
         eb <- Seq(1e-1, 1e-2, 1e-3))
      checkTrialBounds(frames, eb, 8)
  }

  test("property: a trial's maxBytes bounds its packed frame on extreme grids") {
    forAllG(TestFrames.extremeGridGen) { case (frames, cfg) => checkTrialBounds(frames, cfg.eb, 1) }
  }

  test("length mismatch rejected") {
    val a = TestFrames.bunny(100)
    val b = TestFrames.bunny(101)
    intercept[IllegalArgumentException](LcpT.compress(a, b, 0.1))
  }

  test("empty frames refuse temporal (handled upstream) but n=1 works") {
    val a = Frame(Array(1.0), Array(2.0), Array(3.0))
    val b = Frame(Array(1.01), Array(2.01), Array(2.99))
    val t = LcpT.compress(b, a, 0.05)
    val d = LcpT.decompress(t.bytes, a)
    assert(Metrics.withinBound(Metrics.maxAbsError(b, d, null), 0.05))
  }

  test("property: walked frames at various eb") {
    for (eb <- Seq(1e-1, 1e-2, 1e-3)) {
      val frames = TestFrames.yiip(600, 2)
      val s = LcpS.compress(frames(0), eb, 64)
      val aligned = frames(1).reorder(s.perm)
      val t = LcpT.compress(aligned, s.recon, eb)
      val d = LcpT.decompress(t.bytes, s.recon)
      assert(Metrics.withinBound(Metrics.maxAbsError(aligned, d, null), eb), s"eb=$eb")
    }
  }

  test("a width-0 residual array counting 2^31 - 1 values is rejected before allocating") {
    val prev   = TestFrames.helium(100, 1).head
    val width0 = Array(0, 0xff, 0xff, 0xff, 0xff, 0x07, 0, 0).map(_.toByte) // fixed, count, width 0, no payload
    val out    = new java.io.ByteArrayOutputStream()
    Zigzag.writeVarLong(out, prev.n.toLong)
    ByteIO.writeDouble(out, 0.01)
    ByteIO.writeBody(out, width0, width0, width0)
    assertThrows[IllegalArgumentException](LcpT.decompress(out.toByteArray, prev))
  }

  /** A Helium LCP-T frame of 500 particles and the basis it decodes against. */
  private lazy val (heliumT, heliumBasis) = {
    val frames = TestFrames.helium(500, 2)
    val s      = LcpS.compress(frames(0), 0.01, 16)
    (LcpT.compress(frames(1).reorder(s.perm), s.recon, 0.01).bytes, s.recon)
  }

  test("a frame decoded against a basis of another particle count is rejected") {
    assert(LcpT.decompress(heliumT, heliumBasis).n == 500)
    for (basis <- Frame.empty +: Seq(499, 501).map(TestFrames.helium(_, 1).head)) {
      val e = withClue(s"basis of ${basis.n}")(intercept[IllegalArgumentException](LcpT.decompress(heliumT, basis)))
      assert(e.getMessage.endsWith(s"frame length 500 does not match previous frame ${basis.n}"), e.getMessage)
    }
  }

  test("a stored particle count of 2^32 + n is rejected, not read as n") {
    val count = new java.io.ByteArrayOutputStream()
    Zigzag.writeVarLong(count, (1L << 32) + 500)
    val bad = count.toByteArray ++ heliumT.drop(BadHeaders.afterVarint(heliumT))
    intercept[IllegalArgumentException](LcpT.decompress(bad, heliumBasis))
  }

  test("LcpT.compress rejects an error bound of 0, -1, NaN or +Inf") {
    val frames = TestFrames.helium(200, 2)
    for (eb <- BadHeaders.Ebs) withClue(s"eb = $eb")(intercept[IllegalArgumentException](LcpT.compress(frames(1), frames(0), eb)))
  }

  test("an LCP-T frame header eb that is not finite and above 0 is rejected naming it") {
    val frames = TestFrames.helium(500, 2)
    val s      = LcpS.compress(frames(0), 0.01, 16)
    val bytes  = LcpT.compress(frames(1).reorder(s.perm), s.recon, 0.01).bytes
    val at     = BadHeaders.afterVarint(bytes)
    assert(BadHeaders.withDoubleAt(bytes, at, 0.01).sameElements(bytes))
    for (eb <- BadHeaders.HeaderEbs) {
      val e = intercept[IllegalArgumentException](LcpT.decompress(BadHeaders.withDoubleAt(bytes, at, eb), s.recon))
      assert(e.getMessage.contains(s"LCP-T error bound must be finite and > 0, got $eb"), e.getMessage)
    }
  }

  test("a frame with bytes after its body is rejected") {
    val frames = TestFrames.helium(500, 2)
    val s      = LcpS.compress(frames(0), 0.01, 16)
    val t      = LcpT.compress(frames(1).reorder(s.perm), s.recon, 0.01)
    assert(LcpT.decompress(t.bytes, s.recon).n == 500)
    assertThrows[IllegalArgumentException](LcpT.decompress(t.bytes ++ Array[Byte](0, 1, 2), s.recon))
  }
}
