package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{BadHeaders, PropSupport, TestFrames}
import repro.metrics.Metrics
import repro.core.Lcp._

class LcpSpec extends AnyFunSuite with PropSupport {

  private def checkBound(frames: IndexedSeq[Frame], r: Lcp.Result, eb: Double): Unit = {
    val dec = Lcp.decompressAll(r.archive)
    assert(dec.size == frames.size)
    frames.indices.foreach { i =>
      assert(dec(i).n == frames(i).n, s"frame $i particle count")
      assert(Metrics.withinBound(Metrics.maxAbsError(frames(i), dec(i), r.perms(i)), eb), s"frame $i bound")
    }
  }

  private def sameFrame(a: Frame, b: Frame): Boolean =
    a.x.sameElements(b.x) && a.y.sameElements(b.y) && a.z.sameElements(b.z)

  test("single frame archive roundtrip") {
    val frames = IndexedSeq(TestFrames.bunny(500))
    val r = Lcp.compress(frames, LcpConfig(0.01, batchSize = 8))
    checkBound(frames, r, 0.01)
    assert(r.methods == IndexedSeq('S'))
  }

  test("multi-frame roundtrip on all four multi-frame datasets") {
    for (gen <- Seq(TestFrames.copper _, TestFrames.helium _, TestFrames.lj _, TestFrames.yiip _)) {
      val frames = gen(800, 6)
      val eb = 0.02
      val r = Lcp.compress(frames, LcpConfig(eb, batchSize = 4))
      checkBound(frames, r, eb)
    }
  }

  test("coherent data selects temporal compression for most frames") {
    val frames = TestFrames.copper(2000, 8)
    val r = Lcp.compress(frames, LcpConfig(0.05, batchSize = 4))
    assert(r.methods.count(_ == 'T') >= 4, s"methods were ${r.methods}")
  }

  test("single-frame batches force spatial everywhere except anchored heads") {
    val frames = TestFrames.copper(500, 4)
    val r = Lcp.compress(frames, LcpConfig(0.02, batchSize = 1))
    // Batch heads may still be temporal thanks to anchor frames (§7.3).
    assert(r.methods.head == 'S')
  }

  test("archive serialization roundtrip") {
    val frames = TestFrames.helium(600, 5)
    val r = Lcp.compress(frames, LcpConfig(0.01, batchSize = 2))
    val restored = LcpArchive.fromBytes(r.archive.toBytes)
    assert(restored.eb == r.archive.eb)
    assert(restored.batchSize == r.archive.batchSize)
    assert(restored.entries == r.archive.entries)
    val a = Lcp.decompressAll(r.archive)
    val b = Lcp.decompressAll(restored)
    a.zip(b).foreach { case (fa, fb) =>
      assert(fa.x.sameElements(fb.x) && fa.y.sameElements(fb.y) && fa.z.sameElements(fb.z))
    }
  }

  test("decompressBatch returns exactly the batch frames") {
    val frames = TestFrames.lj(400, 10)
    val r = Lcp.compress(frames, LcpConfig(0.02, batchSize = 4))
    val all = Lcp.decompressAll(r.archive)
    val b1 = Lcp.decompressBatch(r.archive, 1) // frames 4..7
    assert(b1.size == 4)
    b1.zipWithIndex.foreach { case (f, k) =>
      assert(f.x.sameElements(all(4 + k).x))
    }
  }

  test("decompressFrame matches decompressAll for every frame") {
    // 10 frames leave a partial last batch at batch sizes 3 and 4; batch
    // size 1 makes every frame a head that may decode against an anchor.
    for (gen <- Seq(TestFrames.copper _, TestFrames.helium _, TestFrames.lj _, TestFrames.yiip _);
         bs  <- Seq(1, 3, 4)) {
      val frames = gen(300, 10)
      val a = Lcp.compress(frames, LcpConfig(0.03, batchSize = bs)).archive
      val all = Lcp.decompressAll(a)
      assert(all.size == frames.size)
      frames.indices.foreach { i =>
        assert(sameFrame(Lcp.decompressFrame(a, i), all(i)), s"frame $i, batch size $bs")
      }
      a.batches.indices.foreach { b =>
        val batch = Lcp.decompressBatch(a, b)
        assert(batch.size == math.min(bs, frames.size - b * bs), s"batch $b, batch size $bs")
        batch.zipWithIndex.foreach { case (f, k) =>
          assert(sameFrame(f, all(b * bs + k)), s"batch $b frame $k, batch size $bs")
        }
      }
    }
  }

  test("batch independence: a batch decodes using only its own payloads plus anchors") {
    val frames = TestFrames.helium(500, 8)
    val r = Lcp.compress(frames, LcpConfig(0.02, batchSize = 4))
    val a = r.archive
    // Wipe the other batch's payloads; target batch must still decode.
    val crippled = a.copy(batches = a.batches.updated(0, a.batches(0).map(_ => Array.emptyByteArray)))
    val b1 = Lcp.decompressBatch(crippled, 1)
    val orig = Lcp.decompressBatch(a, 1)
    b1.zip(orig).foreach { case (fa, fb) => assert(fa.x.sameElements(fb.x)) }
    (4 until 8).foreach { i =>
      assert(sameFrame(Lcp.decompressFrame(crippled, i), orig(i - 4)), s"frame $i")
    }
  }

  test("anchor frames enable temporal batch heads") {
    val frames = TestFrames.copper(1500, 12)
    val r = Lcp.compress(frames, LcpConfig(0.05, batchSize = 4, ebScaleMode = Off))
    // With high coherence, some batch head beyond the first should go temporal.
    val headMethods = frames.indices.filter(_ % 4 == 0).map(r.methods)
    assert(headMethods.head == 'S')
    assert(headMethods.drop(1).contains('T'),
      s"expected an anchored temporal batch head, got $headMethods")
    checkBound(frames, r, 0.05)
  }

  test("eb scaling (Auto) tracks the micro-trial: never clearly worse than either fixed mode") {
    val frames = TestFrames.helium(1200, 12)
    val eb = 0.05
    val auto   = Lcp.compress(frames, LcpConfig(eb, batchSize = 4, ebScaleMode = Auto))
    val off    = Lcp.compress(frames, LcpConfig(eb, batchSize = 4, ebScaleMode = Off))
    val forced = Lcp.compress(frames, LcpConfig(eb, batchSize = 4, ebScaleMode = Forced(EbScale.Factor)))
    val bestFixed = math.min(off.archive.compressedSizeBytes, forced.archive.compressedSizeBytes)
    assert(auto.archive.compressedSizeBytes <= bestFixed * 1.10,
      s"Auto ${auto.archive.compressedSizeBytes} vs best fixed $bestFixed")
    checkBound(frames, auto, eb)
  }

  test("eb scaling (Auto) stays off when a single batch leaves no dependent heads") {
    val frames = TestFrames.copper(800, 8)
    val r = Lcp.compress(frames, LcpConfig(0.05, batchSize = 8, ebScaleMode = Auto))
    assert(r.archive.anchorEbScale == 1.0)
  }

  test("eb scaling stays off for incoherent data") {
    val frames = IndexedSeq(TestFrames.bunny(400), TestFrames.hacc(400), TestFrames.warpx(400))
    val r = Lcp.compress(frames, LcpConfig(0.05, batchSize = 4, ebScaleMode = Auto))
    assert(r.archive.anchorEbScale == 1.0)
  }

  test("forced eb scale factor is respected and bound still holds") {
    val frames = TestFrames.copper(600, 6)
    val r = Lcp.compress(frames, LcpConfig(0.05, batchSize = 3, ebScaleMode = Forced(10.0)))
    assert(r.archive.anchorEbScale == 10.0)
    checkBound(frames, r, 0.05)
  }

  test("disableTemporal yields all-spatial methods") {
    val frames = TestFrames.copper(500, 6)
    val r = Lcp.compress(frames, LcpConfig(0.05, batchSize = 3, disableTemporal = true))
    assert(r.methods.forall(_ == 'S'))
    checkBound(frames, r, 0.05)
  }

  test("varying particle counts across frames fall back to spatial") {
    val frames = IndexedSeq(TestFrames.bunny(300), TestFrames.bunny(301), TestFrames.bunny(302))
    val r = Lcp.compress(frames, LcpConfig(0.01, batchSize = 8))
    assert(r.methods.forall(_ == 'S'))
    checkBound(frames, r, 0.01)
  }

  test("empty frames are tolerated") {
    val frames = IndexedSeq(Frame.empty, Frame.empty)
    val r = Lcp.compress(frames, LcpConfig(0.1, batchSize = 2))
    assert(Lcp.decompressAll(r.archive).forall(_.n == 0))
  }

  test("FSM trial overhead stays low when spatial always wins") {
    // Independent surface scans: each frame is spatially compressible but
    // frame-to-frame diffs are noise, so LCP-S wins every comparison and
    // the FSM must back its LCP-T trials off exponentially.
    val frames = IndexedSeq.tabulate(40)(k => repro.data.Particles.bunZipper(500, seed = 100 + k))
    val r = Lcp.compress(frames, LcpConfig(0.01, batchSize = 40))
    assert(r.methods.count(_ == 'T') <= 2, s"methods were ${r.methods}")
    assert(r.tTrials < 15, s"too many LCP-T trials: ${r.tTrials}")
  }

  test("compression is deterministic") {
    val frames = TestFrames.yiip(400, 4)
    val a = Lcp.compress(frames, LcpConfig(0.02, batchSize = 2)).archive.toBytes
    val b = Lcp.compress(frames, LcpConfig(0.02, batchSize = 2)).archive.toBytes
    assert(a.sameElements(b))
  }

  test("batch sizes 8 and 16 both roundtrip") {
    for (bs <- Seq(8, 16)) {
      val frames = TestFrames.helium(300, 20)
      val r = Lcp.compress(frames, LcpConfig(0.02, batchSize = bs))
      checkBound(frames, r, 0.02)
    }
  }

  test("temporal batch head depends on nearest anchor, not previous batch tail") {
    // Helium then Copper: batch 1's head is a second anchor, so a later
    // temporal head could be pointed at the older one.
    val frames = TestFrames.heliumThenCopper(800, 12)
    val r = Lcp.compress(frames, LcpConfig(0.05, batchSize = 4))
    // Find a temporal batch head; its anchorRef must point at an anchor
    // that decodes standalone, and the head must decode within the bound.
    val heads = frames.indices.filter(i => i % 4 == 0 && r.archive.entries(i).temporal)
    assert(heads.exists(i => r.archive.entries.take(i).count(_.inAnchor) >= 2), s"methods were ${r.methods}")
    heads.foreach { i =>
      val ref = r.archive.entries(i).anchorRef
      assert(ref >= 0 && ref < r.archive.anchors.size)
      val anchor = LcpS.decompress(r.archive.anchors(ref))
      assert(anchor.n == frames(i).n)
      val head = Lcp.decompressFrame(r.archive, i)
      assert(Metrics.withinBound(Metrics.maxAbsError(frames(i), head, r.perms(i)), 0.05), s"frame $i bound")
    }
  }
  /** The bound up to the rounding of d' = (2q+1)·eb + min (Eq. 5), a few
    * ulps of the coordinates: once eb nears their resolution, that
    * rounding exceeds `withinBound`'s relative slack (a particle at the
    * frame minimum sits exactly eb from its bin centre). */
  private def checkRoundedBound(f: Frame, d: Frame, perm: Array[Int], eb: Double): Unit = {
    val mag = Seq(f.x, f.y, f.z).flatten.map(math.abs).maxOption.getOrElse(0.0)
    assert(d.n == f.n)
    assert(Metrics.maxAbsError(f, d, perm) <= eb + 4 * math.ulp(mag))
  }

  private def checkRoundedBound(frames: IndexedSeq[Frame], r: Lcp.Result, eb: Double): Unit = {
    val dec = Lcp.decompressAll(r.archive)
    frames.indices.foreach(i => checkRoundedBound(frames(i), dec(i), r.perms(i), eb))
  }

  test("a 3-particle frame over extent 1000 at eb 1e-6 compresses within the bound") {
    // The sweep's p = 1 candidate has a 5e8^3-block grid, whose linear
    // block ids overflow a Long; LcpS coarsens p until the grid fits.
    val f = Frame(Array(0.0, 1000.0, 500.0), Array(0.0, 1000.0, 250.0), Array(0.0, 1000.0, 750.0))
    checkRoundedBound(IndexedSeq(f), Lcp.compress(IndexedSeq(f), LcpConfig(1e-6)), 1e-6)
  }

  test("property: extreme grids (tiny eb, wide extents, p = 1) keep the per-particle bound") {
    forAllG(TestFrames.extremeGridGen) { case (frames, cfg) =>
      checkRoundedBound(frames, Lcp.compress(frames, cfg), cfg.eb)
      val s = LcpS.compress(frames.head, cfg.eb, 1)
      checkRoundedBound(frames.head, LcpS.decompress(s.bytes), s.perm, cfg.eb)
    }
  }

  test("a grid no block size fits raises one clear IllegalArgumentException") {
    // Bins of 2e-12 over an extent of 1e9 are out of range for a Long.
    val f = Frame(Array(0.0, 1e9), Array(0.0, 1e9), Array(0.0, 1e9))
    val e = intercept[IllegalArgumentException](LcpS.compress(f, 1e-12, 1))
    assert(e.getMessage.contains("no block size fits"))
  }

  /** `f` with particle 5's coordinate `dim` ('x', 'y' or 'z') replaced by
    * `v`. LCP-T codes x on the calling thread and y and z on pool threads. */
  private def withCoord(f: Frame, dim: Char, v: Double): Frame = {
    val dims = Array(f.x, f.y, f.z)
    val k    = "xyz".indexOf(dim.toInt)
    dims(k) = dims(k).clone()
    dims(k)(5) = v
    Frame(dims(0), dims(1), dims(2))
  }

  private lazy val coherent = TestFrames.copper(300, 4)

  for ((name, v) <- Seq("NaN" -> Double.NaN, "+Inf" -> Double.PositiveInfinity, "-Inf" -> Double.NegativeInfinity)) {
    /** Asserts that `run` raises the non-finite coordinate error itself,
      * also when a pool thread raised it. */
    def rejectsNonFinite(run: => Any): Unit = {
      val e = intercept[IllegalArgumentException](run)
      assert(e.getMessage == s"non-finite coordinate $v", e.getMessage)
    }

    test(s"LcpS.compress rejects a $name coordinate") {
      rejectsNonFinite(LcpS.compress(withCoord(coherent.head, 'x', v), 0.01, 8))
    }

    test(s"LcpT.compress rejects a $name coordinate") {
      val s = LcpS.compress(coherent(0), 0.01, 8)
      for (dim <- "xyz") {
        rejectsNonFinite(LcpT.compress(withCoord(coherent(1).reorder(s.perm), dim, v), s.recon, 0.01))
        rejectsNonFinite(LcpT.trial(withCoord(coherent(1), dim, v), s.perm, s.recon, 0.01).pack())
      }
    }

    test(s"Lcp.compress rejects a $name coordinate in a spatial or a temporal frame") {
      assert(Lcp.compress(coherent, LcpConfig(0.01, batchSize = 2)).methods.contains('T'))
      for (i <- coherent.indices; dim <- "xyz")
        rejectsNonFinite(Lcp.compress(coherent.updated(i, withCoord(coherent(i), dim, v)), LcpConfig(0.01, batchSize = 2)))
    }
  }

  for (factor <- Seq(0.5, 0.0, Double.NaN, Double.PositiveInfinity))
    test(s"a forced anchor eb scale factor of $factor is rejected") {
      val e = intercept[IllegalArgumentException](LcpConfig(0.01, ebScaleMode = Forced(factor)))
      assert(e.getMessage.contains(s"got $factor"), e.getMessage)
    }

  test("LcpConfig rejects an error bound of 0, -1, NaN or +Inf, naming it") {
    for (eb <- BadHeaders.Ebs) {
      val e = intercept[IllegalArgumentException](LcpConfig(eb))
      assert(e.getMessage.contains(s"error bound must be finite and > 0, got $eb"), e.getMessage)
    }
  }

  test("LcpConfig rejects a block size p that is not a power of two, and takes every candidate") {
    for (p <- BadHeaders.Ps :+ 0) {
      val e = intercept[IllegalArgumentException](LcpConfig(0.01, blockSizeP = Some(p)))
      assert(e.getMessage.contains("power of two"), e.getMessage)
    }
    BlockSizeOpt.Candidates.foreach(p => LcpConfig(0.01, blockSizeP = Some(p)))
  }

  test("Fig 7's forced anchor eb scale factors 1 to 20 are accepted and keep the bound") {
    val frames = TestFrames.helium(400, 8)
    for (factor <- Seq(1.0, 2.0, 5.0, 10.0, 20.0))
      checkBound(frames, Lcp.compress(frames, LcpConfig(0.01, batchSize = 4, ebScaleMode = Forced(factor))), 0.01)
  }
}
