package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.{BadHeaders, PropSupport, TestFrames}

class BlockIndexSpec extends AnyFunSuite with PropSupport {

  private def groupOf(f: Frame, eb: Double, p: Int) =
    BlockIndex.group(Quantizer.quantizeFrame(f, eb), p)

  test("empty frame groups to zero blocks") {
    val g = groupOf(Frame.empty, 0.1, 8)
    assert(g.blockIds.isEmpty && g.counts.isEmpty && g.perm.isEmpty)
  }

  test("single particle lands in one block with rel pos < p") {
    val f = Frame(Array(3.7), Array(1.2), Array(9.9))
    val g = groupOf(f, 0.1, 8)
    assert(g.blockIds.length == 1 && g.counts.sameElements(Array(1L)))
    assert(g.relX(0) >= 0 && g.relX(0) < 8)
  }

  test("block ids are sorted and unique") {
    val g = groupOf(TestFrames.hacc(2000), 0.05, 16)
    assert(g.blockIds.toSeq == g.blockIds.toSeq.sorted)
    assert(g.blockIds.distinct.length == g.blockIds.length)
  }

  test("counts sum to particle total and are positive (no empty blocks)") {
    val g = groupOf(TestFrames.threeDep(2000), 0.01, 64)
    assert(g.counts.sum == 2000)
    assert(g.counts.forall(_ > 0))
  }

  test("relative positions bounded by p in all dims") {
    for (p <- Seq(1, 2, 8, 64, 1024)) {
      val g = groupOf(TestFrames.warpx(1000), 0.01, p)
      assert(g.relX.forall(r => r >= 0 && r < p), s"p=$p")
      assert(g.relY.forall(r => r >= 0 && r < p), s"p=$p")
      assert(g.relZ.forall(r => r >= 0 && r < p), s"p=$p")
    }
  }

  test("perm is a permutation") {
    val g = groupOf(TestFrames.bunny(1500), 0.01, 8)
    assert(g.perm.sorted.sameElements(Array.range(0, 1500)))
  }

  /** `ungroup` of `qf`'s grouping at `p` holds, at each stored slot, the
    * Eq. 5 dequantization of the original particle's exact bins. */
  private def assertUngroupInverts(qf: Quantizer.QFrame, p: Int): Unit = {
    val g = BlockIndex.group(qf, p)
    val r = BlockIndex.ungroup(g.blockIds, g.counts, g.relX, g.relY, g.relZ, p, g.bnx, g.bny,
      qf.minX, qf.minY, qf.minZ, qf.eb)
    assert(r.n == qf.n)
    def same(a: Double, q: Long, min: Double) =
      java.lang.Double.doubleToRawLongBits(a) == java.lang.Double.doubleToRawLongBits(Quantizer.dequantize(q, min, qf.eb))
    var i = 0
    while (i < qf.n) {
      val j = g.perm(i)
      assert(same(r.x(i), qf.qx(j), qf.minX) && same(r.y(i), qf.qy(j), qf.minY) && same(r.z(i), qf.qz(j), qf.minZ),
        s"p = $p, slot $i")
      i += 1
    }
  }

  test("ungroup inverts group") {
    assertUngroupInverts(Quantizer.quantizeFrame(TestFrames.lj(1200).head, 0.02), 32)
  }

  test("ungroup rejects relative positions of unequal lengths") {
    val g = BlockIndex.group(Quantizer.quantizeFrame(TestFrames.lj(300).head, 0.02), 32)
    for ((ry, rz) <- Seq((g.relY.init, g.relZ), (g.relY, g.relZ.init)))
      intercept[IllegalArgumentException](
        BlockIndex.ungroup(g.blockIds, g.counts, g.relX, ry, rz, 32, g.bnx, g.bny, 0.0, 0.0, 0.0, 0.02))
  }

  test("p=1 gives one block per occupied bin with zero rel positions") {
    val g = groupOf(TestFrames.copper(500).head, 0.1, 1)
    assert(g.relX.forall(_ == 0) && g.relY.forall(_ == 0) && g.relZ.forall(_ == 0))
  }

  test("huge p puts everything into a single block") {
    val g = groupOf(TestFrames.bunny(300), 0.1, 1 << 16)
    assert(g.blockIds.length == 1)
    assert(g.counts(0) == 300)
  }

  test("sortedIndicesBy matches a boxed sort on 38-bit keys") {
    val rng  = new java.util.Random(5)
    val keys = Array.fill(5000)(rng.nextLong() & ((1L << 38) - 1))
    val got  = BlockIndex.sortedIndicesBy(keys)
    val exp  = Array.range(0, 5000).sortBy(keys(_))
    assert(got.map(keys(_)).sameElements(exp.map(keys(_))))
  }

  test("sortedIndicesBy orders keys 2^44 and 2^45 above small ones") {
    val keys = Array(1L << 45, 5L, 1L << 44, 0L)
    val got  = BlockIndex.sortedIndicesBy(keys)
    assert(got.sameElements(Array(3, 1, 2, 0)))
  }

  test("sortedIndicesBy is stable on ties (equal keys keep their input order)") {
    val keys = Array(7L, 7L, 7L, 1L)
    val got  = BlockIndex.sortedIndicesBy(keys)
    assert(got.sameElements(Array(3, 0, 1, 2)))
  }

  test("property: group/ungroup roundtrip on random frames") {
    val pGen = Gen.oneOf(1, 4, 8, 64, 512)
    forAllG2(TestFrames.frameGen, pGen)((f, p) => assertUngroupInverts(Quantizer.quantizeFrame(f, 0.05), p))
  }
  test("property: sortedIndicesBy equals a stable sort for any keys") {
    val keyGen = Gen.oneOf(Gen.choose(0L, 50L), Gen.choose(Long.MinValue, Long.MaxValue), Gen.choose(-3L, 3L))
    forAllG(Gen.listOf(keyGen)) { ks =>
      val keys = ks.toArray
      assert(BlockIndex.sortedIndicesBy(keys).sameElements(Array.range(0, keys.length).sortBy(keys(_))))
    }
  }

  test("sortedIndicesBy equals a stable boxed sort at every key width, for equal keys, n = 0 and 1, and negative keys") {
    val rng = new java.util.Random(19)
    def check(keys: Array[Long]): Unit =
      assert(BlockIndex.sortedIndicesBy(keys).sameElements(Array.range(0, keys.length).sortBy(keys(_))),
        s"${keys.length} keys up to ${if (keys.isEmpty) 0 else keys.max}")
    // Keys 1 to 62 bits wide: one, two (11 and 12 bits sit on a digit
    // boundary), three, four and more digits.
    for (bits <- Seq(1, 11, 12, 22, 33, 44, 51, 52, 62); n <- Seq(0, 1, 2, 3000)) {
      check(Array.fill(n)(rng.nextLong() >>> (64 - bits)))
      // Few distinct values of the same width: long runs of ties.
      val few = Array.fill(5)(rng.nextLong() >>> (64 - bits))
      check(Array.fill(n)(few(rng.nextInt(few.length))))
    }
    for (k <- Seq(0L, 1L, (1L << 40) + 3, Long.MaxValue, -7L)) check(Array.fill(3000)(k))
    // Negative keys, and keys spanning the whole Long range.
    check(Array.fill(3000)(rng.nextLong()))
    check(Array.fill(3000)(rng.nextInt(9) - 4L))
    check(Array.fill(3000)(Seq(Long.MinValue, -1L, 0L, Long.MaxValue)(rng.nextInt(4))))
  }

  test("a block grid beyond MaxGridCells is rejected, and fittingP coarsens p until it fits") {
    val f  = Frame(Array(0.0, 1000.0), Array(0.0, 1000.0), Array(0.0, 1000.0))
    val qf = Quantizer.quantizeFrame(f, 1e-6)
    intercept[IllegalArgumentException](BlockIndex.group(qf, 1))
    val p = BlockIndex.fittingP(qf, 1)
    assert(p > 1 && (p & (p - 1)) == 0)
    val g = BlockIndex.group(qf, p)
    assert(g.blockIds.forall(id => id >= 0 && id < BlockIndex.MaxGridCells))
    assert(BlockIndex.fittingP(qf, p) == p)
    assert(BlockIndex.fittingP(qf, p / 2) == p)
  }

  test("group, fittingP and ungroup reject a block size p that is not a power of two") {
    val qf = Quantizer.quantizeFrame(TestFrames.lj(300).head, 0.02)
    // At p = 1 every relative position is 0, inside [0, p) for any p >= 1.
    val g = BlockIndex.group(qf, 1)
    for (p <- BadHeaders.Ps ++ Seq(0, -4)) withClue(s"p = $p") {
      intercept[IllegalArgumentException](BlockIndex.group(qf, p))
      intercept[IllegalArgumentException](BlockIndex.fittingP(qf, p))
      val e = intercept[IllegalArgumentException](BlockIndex.ungroup(g.blockIds, g.counts, g.relX, g.relY, g.relZ,
        p, g.bnx, g.bny, qf.minX, qf.minY, qf.minZ, qf.eb))
      assert(e.getMessage.contains("power of two"), e.getMessage)
    }
  }

  test("group emits one (id, count) per run of equal block ids") {
    val f = Frame(Array(0.0, 0.01, 5.0, 5.01, 5.02, 9.0), Array.fill(6)(0.0), Array.fill(6)(0.0))
    val g = BlockIndex.group(Quantizer.quantizeFrame(f, 0.1), 8)
    assert(g.blockIds.sameElements(g.blockIds.distinct.sorted))
    assert(g.counts.sum == 6 && g.counts.length == g.blockIds.length)
    assert(g.counts.sameElements(Array(2L, 3L, 1L)))
  }
}
