package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.coding.{ByteIO, FixedLength, Huffman, IntCoder, Zigzag}

/** LCP-T's residual decode (`IntCoder.decodeSteps` then `LcpT.addBasis`,
  * directly and through `LcpT.decompress`) against its reference: every
  * step equals `Quantizer.residualStep(q, eb)` and every decoded double
  * `Quantizer.reconResidual(prev, q, eb)` of the bins `IntCoder.decode`
  * returns, bit for bit. The sections cover the Huffman window table and
  * codes longer than it (the canonical walk), every fixed-length width that
  * takes its own unpack path (0, 1 and 57–64), and n = 1.
  */
class ResidualDecodeSpec extends AnyFunSuite with PropSupport {

  /** An LCP-T frame predicted from `prev` at `eb` whose residual sections
    * are `sx`, `sy`, `sz`. */
  private def frameBytes(prev: Frame, eb: Double, sx: Array[Byte], sy: Array[Byte], sz: Array[Byte]): Array[Byte] = {
    val out = new ByteArrayOutputStream()
    Zigzag.writeVarLong(out, prev.n.toLong)
    ByteIO.writeDouble(out, eb)
    ByteIO.writeBody(out, sx, sy, sz)
    out.toByteArray
  }

  /** The bins of one residual section. */
  private def bins(section: Array[Byte], n: Int): Array[Long] = IntCoder.decode(new ByteArrayInputStream(section), n)

  /** The reference reconstruction of one residual section. */
  private def reference(section: Array[Byte], prev: Array[Double], eb: Double): Array[Double] = {
    val q = bins(section, prev.length)
    Array.tabulate(prev.length)(i => Quantizer.reconResidual(prev(i), q(i), eb))
  }

  private def sameBits(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length && a.indices.forall(i =>
      java.lang.Double.doubleToRawLongBits(a(i)) == java.lang.Double.doubleToRawLongBits(b(i)))

  /** Decode the three sections through LCP-T, and each one alone, and
    * check every dimension against the reference. */
  private def check(sections: Seq[Array[Byte]], eb: Double, seed: Long): Unit = {
    val n    = IntCoder.decode(new ByteArrayInputStream(sections.head)).length
    val rng  = new java.util.Random(seed)
    val prev = Frame(Array.fill(n)(rng.nextDouble() * 100 - 50), Array.fill(n)(rng.nextGaussian() * 1e4),
      Array.fill(n)(rng.nextDouble() * 1e-3))
    val (sx, sy, sz) = (sections(0), sections(1), sections(2))
    val d    = LcpT.decompress(frameBytes(prev, eb, sx, sy, sz), prev)
    for ((got, section, p) <- Seq((d.x, sx, prev.x), (d.y, sy, prev.y), (d.z, sz, prev.z))) {
      val expected = reference(section, p, eb)
      assert(sameBits(got, expected), s"n = $n, eb = $eb")
      val direct = IntCoder.decodeSteps(new ByteArrayInputStream(section), p.length, Quantizer.residualStep(_, eb))
      assert(sameBits(direct, bins(section, n).map(Quantizer.residualStep(_, eb))), s"steps, n = $n, eb = $eb")
      LcpT.addBasis(direct, p)
      assert(sameBits(direct, expected), s"n = $n, eb = $eb")
    }
  }

  /** A fixed-length residual section of the zigzag codes `z` at `width`
    * bits, written field by field (a width-64 section has codes the encoder
    * refuses). */
  private def fixedSection(z: Array[Long], width: Int): Array[Byte] = {
    val out = new ByteArrayOutputStream()
    out.write(0) // flags: no delta, fixed length
    Zigzag.writeVarLong(out, z.length.toLong)
    out.write(width)
    ByteIO.writeSection(out, FixedLength.encode(z, width))
    out.toByteArray
  }

  /** `n` zigzag codes of exactly `width` bits at most, the first of them
    * exactly `width` bits wide. */
  private def codesOfWidth(n: Int, width: Int, rng: java.util.Random): Array[Long] = {
    val mask = if (width == 64) -1L else (1L << width) - 1
    Array.tabulate(n)(i => if (width == 0) 0L else if (i == 0) 1L << (width - 1) | rng.nextLong() & mask
                            else rng.nextLong() & mask)
  }

  private def huffman(q: Array[Long]): Array[Byte] = IntCoder.encodeForced(q, delta = false, useHuffman = true)

  private val ebs = Gen.oneOf(1e-1, 1e-2, 1e-3, 0.5, 2.0, 3.7e-7, 1e5)

  /** Residual arrays of the shapes LCP-T writes: near-zero motion, wider
    * motion, and a few outliers. */
  private val residuals: Gen[Array[Long]] = for {
    n    <- Gen.frequency(1 -> Gen.const(1), 6 -> Gen.choose(1, 3000))
    kind <- Gen.choose(0, 2)
    seed <- Gen.choose(0L, 1000000L)
  } yield {
    val rng = new java.util.Random(seed)
    Array.fill(n)(kind match {
      case 0 => (rng.nextGaussian() * 1.5).round
      case 1 => rng.nextInt(401).toLong - 200
      case _ => if (rng.nextInt(50) == 0) rng.nextLong() >> 20 else rng.nextInt(7).toLong - 3
    })
  }

  test("property: Huffman and fixed-length residual sections decode to the reference bits") {
    forAllG2(residuals, ebs) { (q, eb) =>
      for (useHuffman <- Seq(true, false)) {
        val s = IntCoder.encodeForced(q, delta = false, useHuffman)
        check(Seq(s, s, s), eb, q.length.toLong)
      }
      check(Seq.fill(3)(IntCoder.encode(q, delta = false)), eb, 7L)
    }
  }

  test("Huffman codes longer than the lookup table decode through the canonical walk") {
    // Fibonacci counts give a code as deep as its alphabet.
    val counts = Iterator.iterate((1, 1)) { case (a, b) => (b, a + b) }.map(_._1).take(22).toArray
    val q      = new scala.util.Random(3)
      .shuffle(counts.indices.flatMap(k => Seq.fill(counts(k))((if (k % 2 == 0) k else -k).toLong))).toArray
    val code   = Huffman.build(Huffman.frequencies(q.map(Zigzag.encode))).get
    assert(code.maxLen > Huffman.Decoder.TableBits, s"longest code ${code.maxLen} bits")
    for (eb <- Seq(1e-2, 0.5)) check(Seq(huffman(q), huffman(q.reverse), huffman(q.map(-_))), eb, 11L)
  }

  test("fixed-length residual sections of widths 0, 1 and 57 to 64 decode to the reference bits") {
    val rng = new java.util.Random(5)
    for (width <- Seq(0, 1) ++ (57 to 64); n <- Seq(1, 2, 9, 1000); eb <- Seq(1e-2, 3.7e-7)) {
      val sections = Seq.fill(3)(fixedSection(codesOfWidth(n, width, rng), width))
      withClue(s"width $width, n $n: ")(check(sections, eb, width.toLong))
    }
  }

  test("a one-particle frame decodes through both coders") {
    for (q <- Seq(0L, 1L, -1L, 123456L, Long.MinValue / 4); useHuffman <- Seq(true, false)) {
      val s = IntCoder.encodeForced(Array(q), delta = false, useHuffman)
      check(Seq(s, s, s), 1e-2, q)
    }
  }

  /** `section` with its payload's last byte cut off. */
  private def truncated(section: Array[Byte]): Array[Byte] = {
    val in = new ByteArrayInputStream(section)
    val flags = in.read()
    Zigzag.readVarLong(in)
    if ((flags & 2) != 0) new Huffman.Decoder(in) else in.read()
    val head    = section.take(section.length - in.available())
    val payload = ByteIO.readSection(in)
    val out     = new ByteArrayOutputStream()
    out.write(head)
    ByteIO.writeSection(out, payload.init)
    out.toByteArray
  }

  private def rejected(prev: Frame, section: Array[Byte]): Unit = {
    val ok = IntCoder.encode(Array.fill(prev.n)(0L), delta = false)
    for (sections <- Seq(Seq(section, ok, ok), Seq(ok, ok, section)))
      intercept[IllegalArgumentException](LcpT.decompress(frameBytes(prev, 1e-2, sections(0), sections(1), sections(2)), prev))
    intercept[IllegalArgumentException](
      IntCoder.decodeSteps(new ByteArrayInputStream(section), prev.n, Quantizer.residualStep(_, 1e-2)))
  }

  private val prev500 = repro.TestFrames.helium(500, 1).head

  test("a delta-coded residual section is rejected (LCP-T never writes one)") {
    val rng = new java.util.Random(7)
    val q   = Array.fill(prev500.n)(rng.nextInt(9).toLong - 4)
    for (useHuffman <- Seq(true, false))
      rejected(prev500, IntCoder.encodeForced(q, delta = true, useHuffman))
  }

  test("a residual count other than the particle count is rejected") {
    val rng = new java.util.Random(9)
    for (n <- Seq(0, 1, 499, 501); useHuffman <- Seq(true, false)) {
      val q = Array.fill(n)(rng.nextInt(9).toLong - 4)
      rejected(prev500, IntCoder.encodeForced(q, delta = false, useHuffman))
    }
  }

  test("a truncated residual payload is rejected") {
    val rng = new java.util.Random(13)
    val q   = Array.fill(prev500.n)(rng.nextInt(9).toLong - 4)
    for (useHuffman <- Seq(true, false))
      rejected(prev500, truncated(IntCoder.encodeForced(q, delta = false, useHuffman)))
    for (width <- Seq(1, 57, 64))
      rejected(prev500, truncated(fixedSection(codesOfWidth(prev500.n, width, rng), width)))
  }
}
