package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.{BadHeaders, PropSupport, TestFrames}
import repro.coding.{ByteIO, IntCoder, Zigzag}
import repro.metrics.Metrics

class LcpSSpec extends AnyFunSuite with PropSupport {

  private def roundtrip(f: Frame, eb: Double, p: Int): (Frame, Array[Int]) = {
    val r = LcpS.compress(f, eb, p)
    (LcpS.decompress(r.bytes), r.perm)
  }

  test("empty frame roundtrip") {
    val (d, _) = roundtrip(Frame.empty, 0.1, 8)
    assert(d.n == 0)
  }

  test("single particle roundtrip within bound") {
    val f = Frame(Array(1.23), Array(-4.56), Array(7.89))
    val (d, perm) = roundtrip(f, 0.01, 8)
    assert(d.n == 1)
    assert(Metrics.withinBound(Metrics.maxAbsError(f, d, perm), 0.01))
  }

  private def sameBits(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length &&
      a.indices.forall(i => java.lang.Double.doubleToRawLongBits(a(i)) == java.lang.Double.doubleToRawLongBits(b(i)))

  /** The reconstruction LCP-T predicts from is the decoder's output, bit for bit. */
  private def reconIsDecoded(f: Frame, eb: Double, p: Int): Unit = {
    val r = LcpS.compress(f, eb, p)
    val d = LcpS.decompress(r.bytes)
    assert(sameBits(r.recon.x, d.x) && sameBits(r.recon.y, d.y) && sameBits(r.recon.z, d.z), s"n=${f.n} eb=$eb p=$p")
  }

  test("decompressed frame equals compressor-side reconstruction") {
    val gen = for { f <- TestFrames.frameGen; eb <- TestFrames.ebGen; p <- Gen.oneOf(1, 8, 64, 65536) } yield (f, eb, p)
    forAllG(gen) { case (f, eb, p) => reconIsDecoded(f, eb, p) }
    // At p = 1 this grid has more than MaxGridCells blocks, so fittingP raises p.
    val wide = Frame(Array(0.0, 1000.0, 3.0), Array(0.0, 1000.0, 7.0), Array(0.0, 1000.0, 11.0))
    assert(BlockIndex.fittingP(Quantizer.quantizeFrame(wide, 1e-6), 1) > 1)
    reconIsDecoded(wide, 1e-6, 1)
  }

  test("error bound holds on every dataset at three bounds") {
    for ((name, f) <- TestFrames.oneOfEach; eb <- Seq(1e-1, 1e-2, 1e-3)) {
      val (d, perm) = roundtrip(f, eb, 64)
      assert(d.n == f.n, s"$name lost particles")
      assert(Metrics.withinBound(Metrics.maxAbsError(f, d, perm), eb), s"$name eb=$eb")
    }
  }

  test("multiset of points is preserved up to eb (no particle invented)") {
    val f = TestFrames.hacc(1000)
    val (d, perm) = roundtrip(f, 0.05, 16)
    // Each stored point must match its correspondent within eb in every dim.
    (0 until f.n).foreach { i =>
      val j = perm(i)
      assert(math.abs(d.x(i) - f.x(j)) <= 0.05)
      assert(math.abs(d.y(i) - f.y(j)) <= 0.05)
      assert(math.abs(d.z(i) - f.z(j)) <= 0.05)
    }
  }

  test("larger eb compresses smaller") {
    val f = TestFrames.threeDep(3000)
    val s1 = LcpS.compress(f, 1e-1, 64).bytes.length
    val s3 = LcpS.compress(f, 1e-3, 64).bytes.length
    assert(s1 < s3)
  }

  test("clustered data compresses better than uniform at same eb") {
    val rng = new java.util.Random(2)
    val n = 4000
    val uniform = Frame(Array.fill(n)(rng.nextDouble() * 100),
      Array.fill(n)(rng.nextDouble() * 100), Array.fill(n)(rng.nextDouble() * 100))
    val copper = TestFrames.copper(n).head // lattice: highly structured
    val su = LcpS.compress(uniform, 0.01, 64).bytes.length.toDouble / (3 * 4 * n)
    val sc = LcpS.compress(copper, 0.01, 64).bytes.length.toDouble / (3 * 4 * n)
    assert(sc < su)
  }

  test("compressed size is far below raw FP32 for realistic data") {
    val f  = TestFrames.copper(5000).head
    val sz = LcpS.compress(f, 1e-2, 64).bytes.length
    assert(sz < 3 * 4 * 5000 / 2, "expected at least 2x compression on lattice data")
  }

  test("block size affects size but never correctness") {
    val f = TestFrames.yiip(1500).head
    for (p <- Seq(1, 8, 64, 1024, 1 << 16)) {
      val (d, perm) = roundtrip(f, 0.01, p)
      assert(Metrics.withinBound(Metrics.maxAbsError(f, d, perm), 0.01), s"p=$p")
    }
  }

  test("identical input compresses deterministically") {
    val f = TestFrames.lj(500).head
    val a = LcpS.compress(f, 0.01, 64).bytes
    val b = LcpS.compress(f, 0.01, 64).bytes
    assert(a.sameElements(b))
  }

  test("sectionCosts reports positive sizes and relPos dominated by block count tradeoff") {
    val f = TestFrames.helium(2000).head
    val c = LcpS.sectionCosts(f, 1e-2, 64)
    assert(c.fixed.size == 5 && c.fixed.forall(_ > 0))
  }

  test("Table 3 reports the sizes of the arrays LCP-S stores: Helium, Copper and 3DEP at eb 1e-1, 1e-2, 1e-3") {
    val frames = Seq("Helium" -> TestFrames.helium(3000, 1).head, "Copper" -> TestFrames.copper(3000, 1).head,
      "3DEP" -> TestFrames.threeDep())
    for ((name, f) <- frames; eb <- Seq(1e-1, 1e-2, 1e-3)) {
      val costs  = LcpS.sectionCosts(f, eb, 64)
      val stored = split(LcpS.compress(f, eb, 64).bytes)._2
      for (k <- 0 until 5) withClue(s"$name eb $eb section $k: ") {
        val (fixed, huffman) = (costs.fixed(k), costs.huffman(k))
        // Bit 1 of an IntCoder array's flags byte marks Huffman coding.
        assert(((stored(k)(0) & 2) != 0) == huffman.exists(_ < fixed))
        assert(stored(k).length == huffman.fold(fixed)(math.min(_, fixed)))
      }
    }
  }

  test("duplicate particles survive") {
    val f = Frame(Array(1.0, 1.0, 1.0), Array(2.0, 2.0, 2.0), Array(3.0, 3.0, 3.0))
    val (d, perm) = roundtrip(f, 0.1, 8)
    assert(d.n == 3)
    assert(Metrics.withinBound(Metrics.maxAbsError(f, d, perm), 0.1))
  }

  test("property: random frames roundtrip within bound for random p") {
    val pGen = Gen.oneOf(1, 2, 16, 128, 4096)
    forAllG2(TestFrames.frameGen, pGen) { (f, p) =>
      val eb = 0.05
      val (d, perm) = roundtrip(f, eb, p)
      assert(d.n == f.n)
      assert(Metrics.withinBound(Metrics.maxAbsError(f, d, perm), eb))
    }
  }

  /** The header bytes of LCP-S frame `bytes` and its five body sections
    * (0 = block ids, 1 = block counts, 2–4 = relative x, y, z). */
  private def split(bytes: Array[Byte]): (Array[Byte], Array[Array[Byte]]) = {
    val in = new ByteArrayInputStream(bytes)
    Zigzag.readVarLong(in); ByteIO.readDouble(in); Zigzag.readVarLong(in)
    (0 until 3).foreach(_ => ByteIO.readDouble(in))
    Zigzag.readVarLong(in); Zigzag.readVarLong(in)
    val header = bytes.take(bytes.length - in.available())
    (header, ByteIO.readBody(in, 5))
  }

  /** The LCP-S frame `bytes` written again with its body section `k`
    * replaced by `edit` of its values; the header and the other sections
    * stay as they are. */
  private def withSection(bytes: Array[Byte], k: Int)(edit: Array[Long] => Array[Long]): Array[Byte] = {
    val (header, sections) = split(bytes)
    sections(k) = IntCoder.encode(edit(IntCoder.decode(new ByteArrayInputStream(sections(k)))))
    val out = new ByteArrayOutputStream()
    out.write(header)
    ByteIO.writeBody(out, sections.toIndexedSeq: _*)
    out.toByteArray
  }

  private lazy val countedFrame = LcpS.compress(TestFrames.helium(2000, 1).head, 0.01, 8).bytes

  test("rewriting the block counts unchanged gives back the same frame bytes") {
    assert(withSection(countedFrame, 1)(identity).sameElements(countedFrame))
  }

  test("block counts summing past the particle count are rejected") {
    val crafted = withSection(countedFrame, 1) { c => c.updated(0, c(0) + 1) }
    intercept[IllegalArgumentException](LcpS.decompress(crafted))
  }

  test("fewer block counts than block ids are rejected") {
    val crafted = withSection(countedFrame, 1)(_.dropRight(1))
    intercept[IllegalArgumentException](LcpS.decompress(crafted))
  }

  test("an empty block (count 0) is rejected even when the counts sum to n") {
    val crafted = withSection(countedFrame, 1) { c => c.updated(0, 0L).updated(1, c(0) + c(1)) }
    intercept[IllegalArgumentException](LcpS.decompress(crafted))
  }

  /** The block size p in the header of LCP-S frame `bytes`. */
  private def headerP(bytes: Array[Byte]): Long = {
    val in = new ByteArrayInputStream(bytes)
    Zigzag.readVarLong(in); ByteIO.readDouble(in)
    Zigzag.readVarLong(in)
  }

  test("rewriting the block ids or a relative-position section unchanged gives back the same frame bytes") {
    for (k <- Seq(0, 2, 3, 4)) assert(withSection(countedFrame, k)(identity).sameElements(countedFrame), s"section $k")
  }

  test("a relative position of 10^6, -10^6 or p is rejected in every dimension") {
    val p = headerP(countedFrame)
    for (k <- 2 to 4; rel <- Seq(1000000L, -1000000L, p))
      withClue(s"section $k, rel $rel")(
        intercept[IllegalArgumentException](LcpS.decompress(withSection(countedFrame, k)(_.updated(0, rel)))))
  }

  test("a relative position of p - 1 in the last particle still decodes") {
    val p = headerP(countedFrame)
    val d = LcpS.decompress(withSection(countedFrame, 2)(r => r.updated(r.length - 1, p - 1)))
    assert(d.n == LcpS.decompress(countedFrame).n)
  }

  test("a negative first block-id delta is rejected") {
    val crafted = withSection(countedFrame, 0)(ids => ids.map(_ - ids(0) - 1))
    val err     = intercept[IllegalArgumentException](LcpS.decompress(crafted))
    assert(err.getMessage.contains("block 0 has id -1"), err.getMessage)
  }

  /** The LCP-S frame `bytes` with its header's (p, bnx, bny) replaced by
    * `edit` of them; the other fields and the body stay as they are. */
  private def withGrid(bytes: Array[Byte])(edit: (Long, Long, Long) => (Long, Long, Long)): Array[Byte] = {
    val in  = new ByteArrayInputStream(bytes)
    val out = new ByteArrayOutputStream()
    Zigzag.writeVarLong(out, Zigzag.readVarLong(in)); ByteIO.writeDouble(out, ByteIO.readDouble(in))
    val p    = Zigzag.readVarLong(in)
    val mins = Seq.fill(3)(ByteIO.readDouble(in))
    val (p2, bnx, bny) = edit(p, Zigzag.readVarLong(in), Zigzag.readVarLong(in))
    Zigzag.writeVarLong(out, p2)
    mins.foreach(ByteIO.writeDouble(out, _))
    Zigzag.writeVarLong(out, bnx); Zigzag.writeVarLong(out, bny)
    out.write(in.readAllBytes())
    out.toByteArray
  }

  /** Grid headers that must not decode: an empty extent, a grid whose block
    * count overflows to 0 (2^40 · 2^40), a negative extent, and p = 0. */
  private def badGrids(bytes: Array[Byte]): Seq[(String, Array[Byte])] = Seq(
    "bnx = 0"          -> withGrid(bytes)((p, _, bny) => (p, 0, bny)),
    "bny = 0"          -> withGrid(bytes)((p, bnx, _) => (p, bnx, 0)),
    "bnx = bny = 2^40" -> withGrid(bytes)((p, _, _) => (p, 1L << 40, 1L << 40)),
    "bnx = -bnx"       -> withGrid(bytes)((p, bnx, bny) => (p, -bnx, bny)),
    "p = 0"            -> withGrid(bytes)((_, bnx, bny) => (0, bnx, bny)))

  test("rewriting the grid header unchanged gives back the same frame bytes") {
    assert(withGrid(countedFrame)((p, bnx, bny) => (p, bnx, bny)).sameElements(countedFrame))
  }

  test("a grid extent below 1, a grid past MaxGridCells or p = 0 is rejected") {
    for ((what, crafted) <- badGrids(countedFrame))
      withClue(what)(intercept[IllegalArgumentException](LcpS.decompress(crafted)))
  }

  test("a bad grid header in an archive's LCP-S frame fails at decode naming the frame") {
    // Frames 0 and 2 are anchors, frames 1 and 3 payloads; every entry point
    // that decodes the frame raises the same error.
    val a = Lcp.compress(TestFrames.helium(500, 4), Lcp.LcpConfig(0.01, batchSize = 2, disableTemporal = true)).archive
    assert(a.anchorFrames == Seq(0, 2))
    for (k <- a.entries.indices; e = a.entries(k); b = k / a.batchSize) {
      val stored = if (e.inAnchor) a.anchors(e.slot) else a.batches(b)(e.slot)
      for ((what, crafted) <- badGrids(stored)) {
        val bad =
          if (e.inAnchor) a.copy(anchors = a.anchors.updated(e.slot, crafted))
          else a.copy(batches = a.batches.updated(b, a.batches(b).updated(e.slot, crafted)))
        val err = withClue(s"frame $k, $what")(intercept[IllegalArgumentException](Lcp.decompressAll(bad)))
        assert(err.getMessage.startsWith(s"LCP archive: frame $k (batch $b, stored as LCP-S) does not decode: "),
          s"frame $k, $what: ${err.getMessage}")
        assert(intercept[IllegalArgumentException](Lcp.decompressBatch(bad, b)).getMessage == err.getMessage)
        assert(intercept[IllegalArgumentException](Lcp.decompressFrame(bad, k)).getMessage == err.getMessage)
      }
    }
  }

  test("an anchor that does not decode is named by its own frame, also from a temporal head that uses it") {
    // Frames S T | T T: frame 2 is a temporal head predicted from anchor 0.
    val a = Lcp.compress(TestFrames.helium(500, 4), Lcp.LcpConfig(0.01, batchSize = 2)).archive
    assert(a.temporal == Seq(false, true, true, true) && a.entries(2).anchorRef == 0)
    val bad  = a.copy(anchors = a.anchors.updated(0, badGrids(a.anchors(0)).head._2))
    val want = "LCP archive: frame 0 (batch 0, stored as LCP-S) does not decode: "
    assert(intercept[IllegalArgumentException](Lcp.decompressAll(bad)).getMessage.startsWith(want))
    assert(intercept[IllegalArgumentException](Lcp.decompressBatch(bad, 1)).getMessage.startsWith(want))
    assert(intercept[IllegalArgumentException](Lcp.decompressFrame(bad, 3)).getMessage.startsWith(want))
  }

  test("LcpS.compress rejects a block size p that is not a power of two, or an error bound of 0, -1, NaN or +Inf") {
    val f = TestFrames.helium(200, 1).head
    for (p <- BadHeaders.Ps) withClue(s"p = $p")(intercept[IllegalArgumentException](LcpS.compress(f, 0.01, p)))
    for (eb <- BadHeaders.Ebs) withClue(s"eb = $eb")(intercept[IllegalArgumentException](LcpS.compress(f, eb, 8)))
  }

  /** An LCP-S frame at p = 1, where every relative position is 0: a header
    * p other than 1 still holds every one of them in [0, p). */
  private lazy val p1Frame = LcpS.compress(TestFrames.helium(500, 1).head, 0.01, 1).bytes

  test("an LCP-S frame header p of 3, 6 or 100 is rejected") {
    assert(headerP(p1Frame) == 1)
    assert(LcpS.decompress(withGrid(p1Frame)((_, bnx, bny) => (2, bnx, bny))).n == 500)
    for (p <- BadHeaders.Ps) {
      val e = intercept[IllegalArgumentException](LcpS.decompress(withGrid(p1Frame)((_, bnx, bny) => (p, bnx, bny))))
      assert(e.getMessage.contains("power of two"), e.getMessage)
    }
  }

  /** LCP-S or LCP-T frame `bytes` with its header eb, which follows the
    * particle count in both, replaced by `eb`. */
  private def withEb(bytes: Array[Byte], eb: Double): Array[Byte] =
    BadHeaders.withDoubleAt(bytes, BadHeaders.afterVarint(bytes), eb)

  /** The offset of minimum `d` (0 = x) in the header of LCP-S frame `bytes`. */
  private def minAt(bytes: Array[Byte], d: Int): Int = BadHeaders.afterVarint(bytes, BadHeaders.afterVarint(bytes) + 8) + 8 * d

  private def withMin(bytes: Array[Byte], d: Int, min: Double): Array[Byte] = BadHeaders.withDoubleAt(bytes, minAt(bytes, d), min)

  test("an LCP-S frame header eb that is not finite and above 0, or a non-finite minimum, is rejected naming it") {
    assert(withEb(countedFrame, 0.01).sameElements(countedFrame))
    for (eb <- BadHeaders.HeaderEbs) {
      val e = intercept[IllegalArgumentException](LcpS.decompress(withEb(countedFrame, eb)))
      assert(e.getMessage.contains(s"LCP-S error bound must be finite and > 0, got $eb"), e.getMessage)
    }
    val (mx, my, mz) = TestFrames.helium(2000, 1).head.mins
    for ((min, k) <- Seq(mx, my, mz).zipWithIndex)
      assert(withMin(countedFrame, k, min).sameElements(countedFrame), s"minimum $k")
    for (k <- 0 until 3; min <- BadHeaders.Mins) {
      val e = intercept[IllegalArgumentException](LcpS.decompress(withMin(countedFrame, k, min)))
      assert(e.getMessage == s"non-finite LCP-S minimum $min", e.getMessage)
    }
  }

  test("a bad header eb, minimum or p in an archive's LCP-S or LCP-T frame fails at decode naming the frame") {
    // Frames S T | T T and, at p = 1 with LCP-T off, S S | S S; frames 0 and
    // 2 are anchors.
    val hybrid  = Lcp.compress(TestFrames.helium(500, 4), Lcp.LcpConfig(0.01, batchSize = 2)).archive
    val spatial = Lcp.compress(TestFrames.helium(500, 4),
      Lcp.LcpConfig(0.01, batchSize = 2, blockSizeP = Some(1), disableTemporal = true)).archive
    assert(hybrid.temporal == Seq(false, true, true, true) && spatial.anchorFrames == Seq(0, 2))
    val edits = Seq[(String, Lcp.LcpArchive, Int, Array[Byte] => Array[Byte], String)](
      ("LCP-S eb NaN", spatial, 0, withEb(_, Double.NaN), "LCP-S error bound"),
      ("LCP-S eb -0.01", spatial, 1, withEb(_, -0.01), "LCP-S error bound"),
      ("LCP-S minimum +Inf", spatial, 3, withMin(_, 1, Double.PositiveInfinity), "LCP-S minimum"),
      ("LCP-S p = 3", spatial, 2, withGrid(_)((_, bnx, bny) => (3, bnx, bny)), "power of two"),
      ("LCP-T eb NaN", hybrid, 1, withEb(_, Double.NaN), "LCP-T error bound"),
      ("LCP-T eb +Inf", hybrid, 3, withEb(_, Double.PositiveInfinity), "LCP-T error bound"))
    for ((what, a, k, edit, names) <- edits) withClue(what) {
      val e   = a.entries(k)
      val b   = k / a.batchSize
      val bad =
        if (e.inAnchor) a.copy(anchors = a.anchors.updated(e.slot, edit(a.anchors(e.slot))))
        else a.copy(batches = a.batches.updated(b, a.batches(b).updated(e.slot, edit(a.batches(b)(e.slot)))))
      val method = if (e.temporal) "T" else "S"
      val err = intercept[IllegalArgumentException](Lcp.decompressAll(bad))
      assert(err.getMessage.startsWith(s"LCP archive: frame $k (batch $b, stored as LCP-$method) does not decode: ") &&
        err.getMessage.contains(names), err.getMessage)
      assert(intercept[IllegalArgumentException](Lcp.decompressBatch(bad, b)).getMessage == err.getMessage)
      assert(intercept[IllegalArgumentException](Lcp.decompressFrame(bad, k)).getMessage == err.getMessage)
    }
  }

  test("a frame with bytes after its body is rejected") {
    val bytes = LcpS.compress(TestFrames.helium(500, 1).head, 0.01, 16).bytes
    assert(LcpS.decompress(bytes).n == 500)
    assertThrows[IllegalArgumentException](LcpS.decompress(bytes ++ Array[Byte](0, 1, 2)))
  }
}
