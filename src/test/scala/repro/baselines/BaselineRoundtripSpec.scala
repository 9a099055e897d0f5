package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.{BadHeaders, TestFrames}
import repro.coding.{ByteIO, Zigzag}
import repro.core.Frame
import repro.metrics.Metrics

/** Roundtrip + error-bound conformance for every codec on several datasets
  * and bounds — the §8.2.2 compression-error check ("all compressors
  * respect the pre-defined error bound") as a test matrix.
  */
class BaselineRoundtripSpec extends AnyFunSuite {

  private val codecs: Seq[ParticleCodec] = Seq(
    Sz2Like, Sz3Like, MdzLike, ZfpLike, SperrLike, DracoLike, Tmc13Like, LcpCodec.full)

  private val frameWise = Seq[FrameWiseCodec](Sz2Like, Sz3Like, SperrLike, ZfpLike, Tmc13Like, DracoLike)

  private def multiFrameInputs: Seq[(String, IndexedSeq[Frame])] = Seq(
    "Copper" -> TestFrames.copper(600, 5),
    "Helium" -> TestFrames.helium(600, 5),
    "YIIP"   -> TestFrames.yiip(600, 5))

  private def singleFrameInputs: Seq[(String, IndexedSeq[Frame])] = Seq(
    "BUN-ZIPPER" -> IndexedSeq(TestFrames.bunny(800)),
    "HACC"       -> IndexedSeq(TestFrames.hacc(800)),
    "3DEP"       -> IndexedSeq(TestFrames.threeDep(800)))

  for {
    codec <- codecs
    (dsName, frames) <- multiFrameInputs ++ singleFrameInputs
    eb <- Seq(1e-1, 1e-2)
  } test(s"${codec.name} on $dsName at eb=$eb: counts preserved, bound respected") {
    val c   = codec.compress(frames, eb, batchSize = 4)
    val dec = codec.decompress(c.payload)
    assert(dec.size == frames.size, "frame count")
    frames.indices.foreach { i =>
      assert(dec(i).n == frames(i).n, s"particle count in frame $i")
      val err = Metrics.maxAbsError(frames(i), dec(i), c.perms(i))
      assert(Metrics.withinBound(err, eb), s"frame $i: max error $err > $eb")
    }
  }

  for (codec <- codecs) test(s"${codec.name}: empty frame list of one empty frame") {
    val frames = IndexedSeq(Frame.empty)
    val c = codec.compress(frames, 0.1, 4)
    assert(codec.decompress(c.payload).head.n == 0)
  }

  for (codec <- codecs) test(s"${codec.name}: deterministic output") {
    val frames = IndexedSeq(TestFrames.bunny(300))
    val a = codec.compress(frames, 0.05, 4).payload
    val b = codec.compress(frames, 0.05, 4).payload
    assert(a.sameElements(b))
  }

  for (codec <- codecs) test(s"${codec.name}: tighter bound never loses particles") {
    val frames = IndexedSeq(TestFrames.warpx(500))
    val c = codec.compress(frames, 1e-3, 4)
    assert(codec.decompress(c.payload).head.n == 500)
  }

  private def varint(v: Long): Array[Byte] = {
    val out = new java.io.ByteArrayOutputStream()
    Zigzag.writeVarLong(out, v)
    out.toByteArray
  }

  /** `bytes` with its leading varint replaced by `v`. */
  private def withLeadingVarint(bytes: Array[Byte], v: Long): Array[Byte] = {
    val in = new java.io.ByteArrayInputStream(bytes)
    Zigzag.readVarLong(in)
    varint(v) ++ in.readAllBytes()
  }

  for (codec <- frameWise)
    test(s"${codec.name}: a header particle count of Int.MaxValue is rejected before allocating") {
      val bytes = codec.compressFrame(TestFrames.bunny(300), 0.05)._1
      assert(codec.decompressFrame(withLeadingVarint(bytes, 300)).n == 300)
      intercept[IllegalArgumentException](codec.decompressFrame(withLeadingVarint(bytes, Int.MaxValue)))
    }

  for (codec <- Seq[ParticleCodec](Sz2Like, MdzLike))
    test(s"${codec.name}: a frame or batch count of 2^32 is rejected, not read as 0") {
      intercept[IllegalArgumentException](codec.decompress(varint(1L << 32)))
      val payload = codec.compress(TestFrames.copper(200, 4), 0.05, 2).payload
      intercept[IllegalArgumentException](codec.decompress(withLeadingVarint(payload, (1L << 32) + 2)))
    }

  // A fixed-length IntCoder array: count 2^31 - 1, width 0, an empty payload.
  private val width0 = Array(0, 0xff, 0xff, 0xff, 0xff, 0x07, 0, 0).map(_.toByte)

  for ((codec, sections) <- Seq[(FrameWiseCodec, Int)](Sz2Like -> 3, Sz3Like -> 3, SperrLike -> 9))
    test(s"${codec.name}: a width-0 array counting 2^31 - 1 values in a 100-particle frame is rejected") {
      val out = new java.io.ByteArrayOutputStream()
      Zigzag.writeVarLong(out, 100L)
      ByteIO.writeDouble(out, 0.01)
      ByteIO.writeBody(out, Seq.fill(sections)(width0): _*)
      intercept[IllegalArgumentException](codec.decompressFrame(out.toByteArray))
    }

  for (codec <- frameWise)
    test(s"${codec.name}: a frame with bytes after its body is rejected") {
      val bytes = codec.compressFrame(TestFrames.bunny(300), 0.05)._1
      assert(codec.decompressFrame(bytes).n == 300)
      intercept[IllegalArgumentException](codec.decompressFrame(bytes ++ Array[Byte](0, 1, 2)))
    }

  for (codec <- frameWise :+ MdzLike)
    test(s"${codec.name}: bytes after the last frame or batch are rejected") {
      val payload = codec.compress(TestFrames.copper(200, 4), 0.05, 2).payload
      assert(codec.decompress(payload).size == 4)
      intercept[IllegalArgumentException](codec.decompress(payload :+ 0.toByte))
    }

  for (codec <- codecs)
    test(s"${codec.name}: an error bound of 0, -1, NaN or +Inf is rejected naming the bound") {
      for (eb <- BadHeaders.Ebs) {
        val e = withClue(s"eb = $eb")(intercept[IllegalArgumentException](codec.compress(TestFrames.copper(200, 2), eb, 2)))
        assert(e.getMessage.contains(s"error bound must be finite and > 0, got $eb"), e.getMessage)
      }
    }

  /** A frame of `codec` at eb 0.05 and the offset of its header eb, which
    * follows the particle count. */
  private def ebHeader(codec: FrameWiseCodec): (Array[Byte], Int) = {
    val bytes = codec.compressFrame(TestFrames.bunny(300), 0.05)._1
    (bytes, BadHeaders.afterVarint(bytes))
  }

  for (codec <- Seq[FrameWiseCodec](Sz2Like, Sz3Like, SperrLike, ZfpLike, Tmc13Like))
    test(s"${codec.name}: a header eb that is not finite and above 0 is rejected naming it") {
      val (bytes, at) = ebHeader(codec)
      assert(BadHeaders.withDoubleAt(bytes, at, 0.05).sameElements(bytes))
      for (eb <- BadHeaders.HeaderEbs) {
        val e = intercept[IllegalArgumentException](codec.decompressFrame(BadHeaders.withDoubleAt(bytes, at, eb)))
        assert(e.getMessage.contains(s"${codec.name} error bound must be finite and > 0, got $eb"), e.getMessage)
      }
    }

  /** `bytes` with each of its three header minima, which start at `at`, in
    * turn replaced by each non-finite value; each must be rejected by
    * `decode` naming the minimum. The minima are the frame's own. */
  private def rejectsBadMins(name: String, bytes: Array[Byte], at: Int, decode: Array[Byte] => Frame): Unit = {
    val (mx, my, mz) = TestFrames.bunny(300).mins
    for ((min, d) <- Seq(mx, my, mz).zipWithIndex)
      assert(BadHeaders.withDoubleAt(bytes, at + 8 * d, min).sameElements(bytes), s"minimum $d")
    for (d <- 0 until 3; min <- BadHeaders.Mins) {
      val e = intercept[IllegalArgumentException](decode(BadHeaders.withDoubleAt(bytes, at + 8 * d, min)))
      assert(e.getMessage == s"non-finite $name minimum $min", e.getMessage)
    }
  }

  for (codec <- Seq[FrameWiseCodec](ZfpLike, Tmc13Like))
    test(s"${codec.name}: a non-finite header minimum is rejected naming it") {
      val (bytes, at) = ebHeader(codec)
      rejectsBadMins(codec.name, bytes, at + 8, codec.decompressFrame)
    }

  test("Draco: a non-finite header minimum, or a step that is not finite and above 0, is rejected naming it") {
    val bytes = DracoLike.compressFrame(TestFrames.bunny(300), 0.05)._1
    val at    = BadHeaders.afterVarint(bytes) + 1 // the minima follow the bit count
    rejectsBadMins("Draco", bytes, at, DracoLike.decompressFrame)
    for (step <- BadHeaders.HeaderEbs) {
      val e = intercept[IllegalArgumentException](DracoLike.decompressFrame(BadHeaders.withDoubleAt(bytes, at + 24, step)))
      assert(e.getMessage.contains(s"Draco step must be finite and > 0, got $step"), e.getMessage)
    }
  }

  test("Draco: a NaN or infinite coordinate is rejected at compress, not written as a step its decoder rejects") {
    val f = TestFrames.bunny(300)
    for (v <- BadHeaders.Mins) {
      val x = f.x.clone()
      x(5) = v
      val e = intercept[IllegalArgumentException](DracoLike.compress(IndexedSeq(Frame(x, f.y, f.z)), 0.05, 1))
      assert(e.getMessage.startsWith("non-finite Draco coordinate range"), e.getMessage)
    }
  }

  for (codec <- Seq[ParticleCodec](Sz2Like, Sz3Like, SperrLike, MdzLike);
       (label, v) <- Seq("NaN" -> Double.NaN, "+Inf" -> Double.PositiveInfinity, "-Inf" -> Double.NegativeInfinity))
    test(s"${codec.name}: a $label coordinate is rejected at compress, in a batch head or a later frame") {
      val frames = TestFrames.copper(200, 2)
      for (k <- frames.indices; dim <- 0 until 3) {
        val dims = Array(frames(k).x, frames(k).y, frames(k).z)
        dims(dim) = dims(dim).updated(5, v)
        val bad = frames.updated(k, Frame(dims(0), dims(1), dims(2)))
        val e   = withClue(s"frame $k, dimension $dim")(intercept[IllegalArgumentException](codec.compress(bad, 0.05, 2)))
        assert(e.getMessage == s"non-finite coordinate $v", e.getMessage)
      }
    }

  test("MDZ: a temporal frame with bytes after its body is rejected") {
    val in      = new java.io.ByteArrayInputStream(MdzLike.compress(TestFrames.copper(200, 2), 0.05, 2).payload)
    val batches = ByteIO.readCount(in, 1, "batches")
    assert(batches == 1 && in.read() == 1, "one batch in temporal mode")
    val sections = ByteIO.readSections(in)
    val out      = new java.io.ByteArrayOutputStream()
    Zigzag.writeVarLong(out, 1L)
    out.write(1)
    ByteIO.writeSections(out, sections.updated(1, sections(1) ++ Array[Byte](0, 1)))
    intercept[IllegalArgumentException](MdzLike.decompress(out.toByteArray))
  }

  /** A TMC13 frame of `f` with its occupancy bytes and leaf counts (the
    * IntCoder array) rewritten by `edit`; the header is kept. */
  private def tmc13Edited(f: Frame)(edit: (Array[Byte], Array[Byte]) => (Array[Byte], Array[Byte])): Array[Byte] = {
    val bytes  = Tmc13Like.compressFrame(f, 0.05)._1
    val in     = new java.io.ByteArrayInputStream(bytes)
    Zigzag.readVarLong(in)
    in.skip(4 * 8 + 1) // eb, the three minima, the depth
    val header = bytes.take(bytes.length - in.available())
    val body   = ByteIO.readBody(in, 2)
    val (occ2, dups2) = edit(body(0), body(1))
    val out = new java.io.ByteArrayOutputStream()
    out.write(header)
    ByteIO.writeBody(out, occ2, dups2)
    out.toByteArray
  }

  test("TMC13: rewriting the octree unchanged gives back the same frame bytes") {
    val f = TestFrames.bunny(300)
    assert(tmc13Edited(f)((o, d) => (o, d)).sameElements(Tmc13Like.compressFrame(f, 0.05)._1))
  }

  test("TMC13: an occupancy section one byte short or one byte long is rejected") {
    val f = TestFrames.bunny(300)
    intercept[IllegalArgumentException](Tmc13Like.decompressFrame(tmc13Edited(f)((o, d) => (o.init, d))))
    intercept[IllegalArgumentException](Tmc13Like.decompressFrame(tmc13Edited(f)((o, d) => (o :+ 0.toByte, d))))
  }

  test("TMC13: occupancy describing more leaves than there are leaf counts is rejected") {
    val f = TestFrames.bunny(300)
    // The last occupancy byte is a last-level node: every set bit is a leaf.
    val bad = tmc13Edited(f) { (o, d) =>
      assert(o.last != -1, "the last node has a free child")
      (o.updated(o.length - 1, -1.toByte), d)
    }
    intercept[IllegalArgumentException](Tmc13Like.decompressFrame(bad))
  }
}
