package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestFrames
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

  for (codec <- Seq[FrameWiseCodec](Sz2Like, Sz3Like, SperrLike, ZfpLike, Tmc13Like, DracoLike))
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
}
