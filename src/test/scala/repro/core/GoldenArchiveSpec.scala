package repro.core

import java.io.ByteArrayInputStream
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import repro.TestFrames
import repro.baselines.{DracoLike, MdzLike, ParticleCodec, SperrLike, Sz2Like, Sz3Like, Tmc13Like, ZfpLike}
import repro.coding.{ByteIO, Zigzag}
import repro.data.Particles

/** Byte-identity gate: pins the SHA-256 of the serialized archive for the
  * golden (dataset, eb, batch, option) cells of `LcpGoldenCells`, plus the payload
  * digests of the baselines. A refactor that must not change the format
  * keeps every digest; a deliberate format change updates them in the same
  * change and records the compression-ratio effect.
  */
class GoldenArchiveSpec extends AnyFunSuite {

  private def sha256(bytes: Array[Byte]): String =
    MessageDigest.getInstance("SHA-256").digest(bytes).map("%02x".format(_)).mkString

  for (c <- LcpGoldenCells.all)
    test(s"LCP golden archive: ${c.name}") {
      val got = sha256(Lcp.compress(c.frames(), c.cfg).archive.toBytes)
      assert(got == c.archiveDigest, s"ARCHIVE ${c.name} -> $got")
    }

  test("every LCP golden archive starts with an LCP-S frame: frame 0 has no temporal basis") {
    for (c <- LcpGoldenCells.all) assert(Lcp.compress(c.frames(), c.cfg).methods.head == 'S', c.name)
  }

  test("LCP golden archives compressed from several threads at once keep their digests") {
    val cells = LcpGoldenCells.all
    val digests = new java.util.concurrent.ConcurrentLinkedQueue[(String, String)]
    // Four plain threads, each forking into the common pool, start the cells
    // in rotated orders; the pool's own threads run them nested in Fork.map.
    val threads = (0 until 4).map { k =>
      new Thread(() => (cells.drop(k) ++ cells.take(k)).foreach { c =>
        digests.add(c.name -> sha256(Lcp.compress(c.frames(), c.cfg).archive.toBytes))
      })
    }
    threads.foreach(_.start())
    Fork.map(cells)(c => digests.add(c.name -> sha256(Lcp.compress(c.frames(), c.cfg).archive.toBytes)))
    threads.foreach(_.join())
    val want = cells.map(c => c.name -> c.archiveDigest).toMap
    assert(digests.size == 5 * cells.size)
    digests.asScala.foreach { case (name, got) => assert(got == want(name), s"ARCHIVE $name -> $got") }
  }

  test("the two-anchor golden cells store frame 4 in a second anchor, which frame 8 predicts from") {
    def archive(c: LcpGoldenCells.Cell) = Lcp.compress(c.frames(), c.cfg).archive
    val (auto, scaled) = (archive(LcpGoldenCells.twoAnchors), archive(LcpGoldenCells.twoAnchorsScaled))
    for (a <- Seq(auto, scaled)) {
      assert(a.anchors.size == 2 && a.entries(4).inAnchor)
      assert(a.entries(8).temporal && a.entries(8).anchorRef == 1)
    }
    assert(scaled.anchorEbScale == EbScale.Factor)
  }

  /** Per LCP-T frame of cell `c`, whether its trial's `maxBytes` fell below
    * the size of the last LCP-S frame before it, so that `Lcp.compress`
    * committed it before packing; each trial, rebuilt from the decoded basis
    * and the cell's perms, must pack to the stored frame. */
  private def committedUnpacked(c: LcpGoldenCells.Cell): IndexedSeq[Boolean] = {
    val frames = c.frames()
    val r      = Lcp.compress(frames, c.cfg)
    val a      = r.archive
    val dec    = Lcp.decompressAll(a)
    def stored(i: Int) = {
      val e = a.entries(i)
      if (e.inAnchor) a.anchors(e.slot) else a.batches(i / a.batchSize)(e.slot)
    }
    var lastS = -1L
    frames.indices.flatMap { i =>
      val e = a.entries(i)
      if (!e.temporal) { lastS = stored(i).length; None }
      else {
        val basis = if (i % a.batchSize == 0) dec(a.anchorFrames(e.anchorRef)) else dec(i - 1)
        val t     = LcpT.trial(frames(i), r.perms(i), basis, c.cfg.eb)
        assert(t.pack().sameElements(stored(i)), s"${c.name}: frame $i")
        Some(t.maxBytes < lastS)
      }
    }
  }

  test("the packed-size golden cell compares each LCP-T trial on its packed frame; the Copper eb 0.02 cell on its bound") {
    assert(committedUnpacked(LcpGoldenCells.packedTWins) == Seq.fill(7)(false))
    assert(committedUnpacked(LcpGoldenCells.all.head) == Seq.fill(7)(true))
  }

  private lazy val baselineFrames = TestFrames.copper(800, 8)

  for ((codec, digest) <- Seq[(ParticleCodec, String)](
         Sz2Like   -> "b69d29117d44bfbdd2eb3c035341ac14705897ed8da5a62d99f5625fa5a011de",
         Sz3Like   -> "eaf39329f1f58522bc5d6d8b0264e69d37cd0b66ee603416466c242d78a7c4ec",
         MdzLike   -> "4a2d8d2e3c6dc867fa787f0d8e1dbf348d010cd37946bee2a609fb553a50c283",
         SperrLike -> "801f243be113b312a857302b33f88b06223de970c46099452d15bfc01e962ee8",
         ZfpLike   -> "c48473d12ba21e6f8e4b1bab567dc7d887078d9d52e83b1a15f2f7842ddddd3b",
         Tmc13Like -> "4aaa78628fd70f29434f62048e3e22fa9d80ea5990ea811240007d47ae5da5f0",
         DracoLike -> "1ba99111240edd25205962671f6ca4ced320681ec4b4f5406305019a46a41487")) {
    test(s"${codec.name} golden payload: copper 800x8, eb 0.02, batch 4") {
      val got = sha256(codec.compress(baselineFrames, 0.02, 4).payload)
      assert(got == digest, s"GOLDEN ${codec.name} -> $got")
    }
  }

  for ((codec, few, many) <- Seq(
         (Sz2Like,
          "9c430b5955b3f17a4d561115c21e5e91af6489c0afad0fc8dc779568bb246d74",
          "f990e55a406cd43c5da44e5d449cd6c0076b233c25e70aabc6039909ac71b6e5"),
         (Sz3Like,
          "87cc329f08077c802cf3407cc77fafa5fa7ad36ab919c24b7c33167b82238344",
          "8bd6a2db1e5044b1fbb84a288d69f99d85a88bcb2c99cd46d08a252b6289d30c"));
       (cell, frames, digest) <- Seq(
         ("frames of 1, 2, 3 and 17 particles", () => TestFrames.fewParticles, few),
         ("helium 40000x1", () => TestFrames.manyParticles, many)))
    test(s"${codec.name} golden payload: $cell, eb 0.02") {
      val got = sha256(codec.compress(frames(), 0.02, 1).payload)
      assert(got == digest, s"GOLDEN ${codec.name} $cell -> $got")
    }

  /** The mode byte of every MDZ batch (1 = temporal, 0 = spatial); the
    * payload is a batch count, then per batch its mode byte, a frame count
    * and the frames as sections. */
  private def mdzModes(payload: Array[Byte]): Seq[Int] = {
    val in = new ByteArrayInputStream(payload)
    val modes = (1L to Zigzag.readVarLong(in)).map { _ =>
      val mode = in.read()
      (1L to Zigzag.readVarLong(in)).foreach(_ => ByteIO.readSection(in))
      mode
    }
    assert(in.available() == 0, "bytes after the last MDZ batch")
    modes
  }

  private def mdzCell(name: String, frames: => IndexedSeq[Frame], eb: Double, batchSize: Int,
                      mode: Int, digest: String): Unit =
    test(s"MDZ golden payload, ${if (mode == 1) "temporal" else "spatial"} in every batch: $name") {
      val payload = MdzLike.compress(frames, eb, batchSize).payload
      assert(mdzModes(payload) == Seq.fill((frames.size + batchSize - 1) / batchSize)(mode))
      assert(sha256(payload) == digest)
    }

  // Every batch holds at least two frames, so the second-frame probe picks
  // each batch's mode.
  mdzCell("lj 600x9, eb 0.02, batch 3",
    TestFrames.lj(600, 9), 0.02, 3, mode = 1,
    "a5b15dc0eccd2d5a11637841101b1215031fa3cd2c5dddc4d47421fba0429aa8")
  mdzCell("8 independent hacc frames of 500, eb 0.02, batch 4",
    IndexedSeq.tabulate(8)(s => Particles.hacc(500, 100 + s)), 0.02, 4, mode = 0,
    "8475566b81a36636737e81c06f989302a52c125ce85a5b08695ad436e9fe2613")
}
