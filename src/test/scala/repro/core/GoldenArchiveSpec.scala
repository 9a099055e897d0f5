package repro.core

import java.io.ByteArrayInputStream
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.TestFrames
import repro.baselines.{MdzLike, ParticleCodec, SperrLike, Sz2Like, Sz3Like}
import repro.coding.{ByteIO, Zigzag}
import repro.core.Lcp._
import repro.data.Particles

/** Byte-identity gate: pins the SHA-256 of the serialized archive for a
  * small golden set of (dataset, eb, batch, option) cells, plus the payload
  * digests of the prediction-based baselines. A refactor that must not
  * change the format keeps every digest; a deliberate format change updates
  * them in the same change and records the compression-ratio effect.
  */
class GoldenArchiveSpec extends AnyFunSuite {

  private def sha256(bytes: Array[Byte]): String =
    MessageDigest.getInstance("SHA-256").digest(bytes).map("%02x".format(_)).mkString

  private def lcpCell(name: String, frames: => IndexedSeq[Frame], cfg: LcpConfig, digest: String): Unit =
    test(s"LCP golden archive: $name") {
      assert(sha256(Lcp.compress(frames, cfg).archive.toBytes) == digest)
    }

  lcpCell("copper 800x8, eb 0.02, batch 4",
    TestFrames.copper(800, 8), LcpConfig(0.02, batchSize = 4),
    "69ccfe5437c173a26d46ae7e3fdb2a9f2402b1a1f70386b28cccef916a4dcb6f")
  lcpCell("helium 1200x12, eb 0.05, batch 4, Auto eb scaling",
    TestFrames.helium(1200, 12), LcpConfig(0.05, batchSize = 4, ebScaleMode = Auto),
    "6ab940fa663eb0271d225b254f38fe9da44b21cb127af40896b69bdca0784d17")
  lcpCell("lj 400x10, eb 0.02, batch 4",
    TestFrames.lj(400, 10), LcpConfig(0.02, batchSize = 4),
    "b1e222692332a84dcc6f26bee6a9ea826fc2c95a5fde6f595f88821066cfb476")
  lcpCell("yiip 400x4, eb 0.02, batch 2",
    TestFrames.yiip(400, 4), LcpConfig(0.02, batchSize = 2),
    "cc373f05b3593a73d40c2f8442bb139e4a6445b7c00a16e9444df135c557de83")
  lcpCell("bunny single frame, eb 0.01",
    IndexedSeq(TestFrames.bunny(500)), LcpConfig(0.01, batchSize = 8),
    "51866544a9f701f39d249b195ddf356b39a025d1516d17dfa67370290a0e36fb")
  lcpCell("copper 500x6, eb 0.05, batch 3, temporal disabled",
    TestFrames.copper(500, 6), LcpConfig(0.05, batchSize = 3, disableTemporal = true),
    "f4fe0df6285d33bbebb03aac279254e2c286557e37e1db09e675056bcb34bf21")
  lcpCell("helium 600x5, eb 0.01, batch 2, block size p = 1",
    TestFrames.helium(600, 5), LcpConfig(0.01, batchSize = 2, blockSizeP = Some(1)),
    "7ae05d14e8c7872061b82a0fcb4a02674d02db1973be99e918a08be2e2ccd6d6")

  private lazy val baselineFrames = TestFrames.copper(800, 8)

  for ((codec, digest) <- Seq[(ParticleCodec, String)](
         Sz2Like   -> "7efe7495dc2c9d8e5fb66db4257bf0ec1562c576bc1622f1e7d0c3f2ce7be044",
         Sz3Like   -> "8c103d364dcabec7b54ac8c9a17edf1080c009a9681425604a956b7c4d9c8c89",
         MdzLike   -> "d4392207b46d81de50d1ebfdd0ba150631f199ad738f1e24725668b7d2f8d5f1",
         SperrLike -> "801f243be113b312a857302b33f88b06223de970c46099452d15bfc01e962ee8")) {
    test(s"${codec.name} golden payload: copper 800x8, eb 0.02, batch 4") {
      assert(sha256(codec.compress(baselineFrames, 0.02, 4).payload) == digest)
    }
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
