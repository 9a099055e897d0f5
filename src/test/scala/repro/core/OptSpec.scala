package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSupport, TestFrames}

class OptSpec extends AnyFunSuite with PropSupport {

  test("candidates are the 17 powers of two of §7.4.1") {
    assert(BlockSizeOpt.Candidates == (0 to 16).map(1 << _))
  }

  test("sample keeps small frames intact") {
    val f = TestFrames.bunny(1000)
    assert(BlockSizeOpt.sample(f).n == 1000)
  }

  // The sample is a slab below an x cut, not a stride; the name is kept
  // because the count check still holds. The slab test below checks more.
  test("sample strides large frames down to the cap") {
    val f = TestFrames.hacc(BlockSizeOpt.SampleSize * 2)
    assert(BlockSizeOpt.sample(f).n == BlockSizeOpt.SampleSize)
  }

  /** The `SampleSize`-th smallest x in `Arrays.sort` order. */
  private def sortedCut(x: Array[Double]): Double = {
    val xs = x.clone()
    java.util.Arrays.sort(xs)
    xs(BlockSizeOpt.SampleSize - 1)
  }

  private def bits(a: Array[Double]) = a.map(java.lang.Double.doubleToRawLongBits).toSeq

  test("sample cuts large frames to a slab of the cap, every particle at or below the cut, in input order") {
    val f    = TestFrames.hacc(BlockSizeOpt.SampleSize * 2)
    val s    = BlockSizeOpt.sample(f)
    val cut  = sortedCut(f.x)
    assert(s.n == BlockSizeOpt.SampleSize)
    assert(s.x.forall(_ <= cut))
    // The kept particles are a subsequence of the input.
    var j = 0
    for (i <- 0 until s.n) {
      while (f.x(j) != s.x(i) || f.y(j) != s.y(i) || f.z(j) != s.z(i)) j += 1
      j += 1
    }
  }

  test("sample keeps the first SampleSize particles at or below the sorted cut, for ties, signed zeros and NaN") {
    val m   = BlockSizeOpt.SampleSize
    val rng = new java.util.Random(7)
    def frameOf(x: Array[Double]) =
      Frame(x, Array.tabulate(x.length)(_.toDouble), Array.tabulate(x.length)(i => -i.toDouble))
    val nanBits = java.lang.Double.longBitsToDouble(0xfff8000000000001L)
    val xs = Seq(
      Array.fill(m + 1)(rng.nextDouble()),
      Array.fill(m + 1)(rng.nextInt(3).toDouble),                       // duplicates at the cut
      Array.fill(2 * m)(rng.nextInt(10).toDouble),
      Array.fill(2 * m)(if (rng.nextBoolean()) -0.0 else 0.0),         // the cut is a signed zero
      Array.fill(2 * m)(Seq(-0.0, 0.0, -1.0, 1.0)(rng.nextInt(4))),
      Array.fill(m)(rng.nextGaussian()),                                 // n = SampleSize: kept whole
      Array.fill(m + 5)(if (rng.nextInt(4) == 0) Double.NaN else rng.nextGaussian()),
      Array.fill(m + 5)(if (rng.nextInt(4) == 0) nanBits else rng.nextGaussian()),
      Array.fill(m + 5)(Seq(Double.NegativeInfinity, Double.PositiveInfinity, Double.NaN, 2.0)(rng.nextInt(4))),
      Array.fill(2 * m)(Double.NaN))                                     // the cut is NaN: nothing kept
    for (x <- xs) {
      val f   = frameOf(x)
      val exp =
        if (f.n <= m) f
        else { val cut = sortedCut(x); f.reorder(Array.range(0, f.n).filter(x(_) <= cut).take(m)) }
      val got = BlockSizeOpt.sample(f)
      assert(bits(got.x) == bits(exp.x) && bits(got.y) == bits(exp.y) && bits(got.z) == bits(exp.z))
    }
  }

  test("property: the selected sample cut equals the sorted cut, NaN canonical") {
    val m     = BlockSizeOpt.SampleSize
    val odd   = Seq(0.0, -0.0, Double.NaN, java.lang.Double.longBitsToDouble(0xfff8000000000001L),
      Double.PositiveInfinity, Double.NegativeInfinity, Double.MinPositiveValue, -Double.MinPositiveValue)
    val value = Gen.frequency(1 -> Gen.oneOf(odd), 3 -> Gen.choose(-5, 5).map(_.toDouble), 6 -> Gen.choose(-1e9, 1e9))
    // The cut falls anywhere from the top (n = SampleSize + 1) to the
    // lower third of the values.
    val xs    = for { extra <- Gen.choose(1, 2 * m); v <- Gen.listOfN(m + extra, value) } yield v.toArray
    checkProp(Prop.forAllNoShrink(xs) { x =>
      val cut = BlockSizeOpt.sampleCut(x)
      assert(java.lang.Double.doubleToLongBits(cut) == java.lang.Double.doubleToLongBits(sortedCut(x)))
      true
    }, minTests = 30)
  }

  test("best block size is a candidate minimizing the sampled size") {
    val (p, sizes) = BlockSizeOpt.bestBlockSize(TestFrames.copper(2000).head, 0.01)
    assert(BlockSizeOpt.Candidates.contains(p))
    // Oversized-block candidates are pruned (they all collapse to one block).
    assert(sizes.keySet.subsetOf(BlockSizeOpt.Candidates.toSet))
    assert(sizes.nonEmpty && sizes(p) == sizes.values.min)
  }

  test("optimized block size reaches >= 85% of best-candidate CR on every dataset") {
    // The paper's Fig. 6 claim, evaluated with the full frame as ground truth.
    for ((name, f) <- TestFrames.oneOfEach) {
      val eb = 0.01
      val (pOpt, _) = BlockSizeOpt.bestBlockSize(f, eb)
      val sizeOpt = LcpS.compress(f, eb, pOpt).bytes.length.toDouble
      val sizeBest = BlockSizeOpt.Candidates.map(p => LcpS.compress(f, eb, p).bytes.length).min.toDouble
      val ratio = sizeBest / sizeOpt // CR ratio = inverse size ratio
      assert(ratio >= 0.85, f"$name: optimizer reached only ${ratio * 100}%.1f%% of best CR")
    }
  }

  test("empty frame falls back to first candidate") {
    val (p, sizes) = BlockSizeOpt.bestBlockSize(Frame.empty, 0.1)
    assert(p == BlockSizeOpt.Candidates.head && sizes.isEmpty)
  }

  test("correlation gate: coherent copper passes, shuffled does not") {
    val frames = TestFrames.copper(1000, 2)
    assert(EbScale.highTemporalCorrelation(frames, 0.05))
    val shuffled = IndexedSeq(frames(0), TestFrames.hacc(1000))
    assert(!EbScale.highTemporalCorrelation(shuffled, 0.05))
  }

  test("correlation gate: single frame never passes") {
    assert(!EbScale.highTemporalCorrelation(Seq(TestFrames.bunny(100)), 0.1))
  }

  test("correlation gate: mismatched counts never pass") {
    assert(!EbScale.highTemporalCorrelation(
      Seq(TestFrames.bunny(100), TestFrames.bunny(101)), 0.1))
  }

  test("correlation gate depends on eb (coarse bound absorbs motion)") {
    val frames = TestFrames.lj(1000, 2) // step 0.05
    assert(EbScale.highTemporalCorrelation(frames, 0.1))   // motion ≪ bin
    assert(!EbScale.highTemporalCorrelation(frames, 1e-4)) // motion ≫ bin
  }
}
