package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestFrames
import repro.core.Frame
import repro.metrics.Metrics

/** Codec-specific behaviours the paper relies on for its comparisons. */
class BaselineBehaviorSpec extends AnyFunSuite {

  test("SZ2 preserves particle order (perm = identity)") {
    val c = Sz2Like.compress(IndexedSeq(TestFrames.bunny(200)), 0.01, 4)
    assert(c.perms.forall(_ == null))
  }

  test("SZ3 preserves particle order") {
    val c = Sz3Like.compress(IndexedSeq(TestFrames.bunny(200)), 0.01, 4)
    assert(c.perms.forall(_ == null))
  }

  test("SZ3 interpolation beats SZ2 Lorenzo on smooth sorted data") {
    // A sorted (mesh-like) array is exactly where interpolation shines.
    val n = 5000
    val sorted = Frame(
      Array.tabulate(n)(i => i * 0.01),
      Array.tabulate(n)(i => math.sin(i * 0.001) * 10),
      Array.tabulate(n)(i => i * 0.02 + math.cos(i * 0.002)))
    val s2 = Sz2Like.compress(IndexedSeq(sorted), 1e-3, 1).payload.length
    val s3 = Sz3Like.compress(IndexedSeq(sorted), 1e-3, 1).payload.length
    assert(s3 <= s2, s"SZ3 $s3 should be <= SZ2 $s2 on smooth data")
  }

  test("MDZ picks temporal mode on coherent MD data") {
    val frames = TestFrames.copper(800, 6)
    val small  = MdzLike.compress(frames, 0.05, 6).payload.length
    val onlyS  = frames.map(f => Sz2Like.compress(IndexedSeq(f), 0.05, 1).payload.length).sum
    assert(small < onlyS, "batch temporal mode should beat all-spatial on copper")
  }

  test("MDZ batch-level selection cannot mix methods within a batch") {
    // Construct a batch whose second half is incoherent: MDZ still applies
    // one method to the whole batch (the limitation LCP's FSM removes).
    val coherent = TestFrames.copper(500, 3)
    val wild     = IndexedSeq(TestFrames.hacc(500))
    val frames   = coherent ++ wild
    val c   = MdzLike.compress(frames, 0.05, 4)
    val dec = MdzLike.decompress(c.payload)
    frames.indices.foreach { i =>
      assert(Metrics.withinBound(Metrics.maxAbsError(frames(i), dec(i), null), 0.05))
    }
  }

  test("MDZ rejects a batch mode byte other than 0 or 1, naming the batch") {
    val payload = MdzLike.compress(TestFrames.copper(200, 4), 0.05, 2).payload
    // The payload is a batch count, then per batch a mode byte and its
    // frames as a section list: find batch 1's mode byte.
    val in = new java.io.ByteArrayInputStream(payload)
    repro.coding.Zigzag.readVarLong(in)
    in.read()
    repro.coding.ByteIO.readSections(in)
    val at = payload.length - in.available()
    assert(payload(at) == 1, "batch 1 of coherent copper is temporal")
    for (mode <- Seq(2, 255)) {
      val bad = payload.clone()
      bad(at) = mode.toByte
      val e = intercept[IllegalArgumentException](MdzLike.decompress(bad))
      assert(e.getMessage.contains("MDZ batch 1") && e.getMessage.contains(s"mode byte $mode"), e.getMessage)
    }
    // A flip from 1 to 0 still reads as a valid spatial batch; only a
    // checksum over the payload can catch it.
  }

  test("ZFP block coding is error bounded at odd lengths") {
    val f = TestFrames.lj(1003).head // not a multiple of 4
    val c = ZfpLike.compress(IndexedSeq(f), 0.01, 1)
    val d = ZfpLike.decompress(c.payload).head
    assert(Metrics.withinBound(Metrics.maxAbsError(f, d, null), 0.01))
  }

  test("SPERR Haar transform is orthonormal (self-inverting)") {
    val rng = new java.util.Random(9)
    val a = Array.fill(777)(rng.nextGaussian() * 10)
    val b = a.clone()
    SperrLike.forwardHaar(b)
    SperrLike.inverseHaar(b)
    a.zip(b).foreach { case (x, y) => assert(math.abs(x - y) < 1e-9) }
  }

  test("SPERR corrections enforce the bound on adversarial data") {
    val rng = new java.util.Random(10)
    val f = Frame(
      Array.fill(500)(rng.nextDouble() * 1000),
      Array.fill(500)(rng.nextGaussian() * 500),
      Array.fill(500)(if (rng.nextBoolean()) 0.0 else 999.0))
    val eb = 0.01
    val c = SperrLike.compress(IndexedSeq(f), eb, 1)
    val d = SperrLike.decompress(c.payload).head
    assert(Metrics.withinBound(Metrics.maxAbsError(f, d, null), eb))
  }

  test("Draco exposes only discrete quality levels (staircase)") {
    val f = TestFrames.bunny(1000)
    // Nearby bounds map to the same bit count -> identical quality.
    val b1 = DracoLike.bitsForEb(f, 0.010)
    val b2 = DracoLike.bitsForEb(f, 0.011)
    val b3 = DracoLike.bitsForEb(f, 0.002)
    assert(b1 == b2, "nearby ebs must share a quality level")
    assert(b3 > b1, "much tighter eb must raise the bit count")
  }

  test("Draco loses order but returns a valid perm") {
    val f = TestFrames.hacc(500)
    val c = DracoLike.compress(IndexedSeq(f), 0.05, 1)
    assert(c.perms.head.sorted.sameElements(Array.range(0, 500)))
  }

  test("Morton encode/decode roundtrip") {
    val rng = new java.util.Random(4)
    (0 until 1000).foreach { _ =>
      val x = rng.nextInt(1 << 21).toLong
      val y = rng.nextInt(1 << 21).toLong
      val z = rng.nextInt(1 << 21).toLong
      assert(Morton.decode(Morton.encode(x, y, z)) == ((x, y, z)))
    }
  }

  test("Morton order is monotone in interleaved bits") {
    assert(Morton.encode(0, 0, 0) < Morton.encode(1, 0, 0))
    assert(Morton.encode(1, 1, 1) < Morton.encode(2, 0, 0))
  }

  test("TMC13 handles duplicate points (several particles in one leaf)") {
    val f = Frame(
      Array(1.0, 1.0, 1.0, 5.0), Array(2.0, 2.0, 2.0, 6.0), Array(3.0, 3.0, 3.0, 7.0))
    val c = Tmc13Like.compress(IndexedSeq(f), 0.1, 1)
    val d = Tmc13Like.decompress(c.payload).head
    assert(d.n == 4)
    assert(Metrics.withinBound(Metrics.maxAbsError(f, d, c.perms.head), 0.1))
  }

  test("TMC13 rejects grids beyond Morton depth") {
    val f = TestFrames.threeDep(100) // range ~1000
    intercept[IllegalArgumentException](Tmc13Like.compress(IndexedSeq(f), 1e-5, 1))
  }

  test("TMC13 compresses clustered data tighter than Draco sequential coding") {
    val f = TestFrames.copper(4000).head
    val t = Tmc13Like.compress(IndexedSeq(f), 0.01, 1).payload.length
    val d = DracoLike.compress(IndexedSeq(f), 0.01, 1).payload.length
    assert(t < d * 2, s"octree $t vs draco $d") // same ballpark or better
  }

  test("LCP beats SZ2/SZ3 in most cases (the paper's CD-diagram claim)") {
    // §8.2.3: LCP ranks first overall; individual (dataset, eb) cells may
    // still be close. Require a win on at least 6 of 8 datasets and never a
    // loss worse than 25% (solid-lattice Copper in construction order is
    // SZ-friendly by design — see Particles.shuffled).
    var wins = 0
    for ((name, f) <- TestFrames.oneOfEach) {
      val frames = IndexedSeq(f)
      val lcp = LcpCodec.full.compress(frames, 0.01, 1).payload.length
      val sz2 = Sz2Like.compress(frames, 0.01, 1).payload.length
      val sz3 = Sz3Like.compress(frames, 0.01, 1).payload.length
      if (lcp < sz2 && lcp < sz3) wins += 1
      assert(lcp < math.min(sz2, sz3) * 1.25, s"$name: LCP $lcp vs SZ2 $sz2 / SZ3 $sz3")
    }
    assert(wins >= 6, s"LCP won only $wins of 8 datasets")
  }
}
