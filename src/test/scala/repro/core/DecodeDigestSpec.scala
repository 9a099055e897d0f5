package repro.core

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import repro.TestFrames
import repro.baselines.{DracoLike, MdzLike, ParticleCodec, SperrLike, Sz2Like, Sz3Like, Tmc13Like, ZfpLike}
import repro.core.Lcp.{LcpArchive, LcpConfig}
import repro.data.Particles

/** Decode-side byte-identity gate: pins the SHA-256 of the decoded doubles
  * (x, y and z of every frame, in frame order, as big-endian IEEE bits) for
  * the archive cells of `LcpGoldenCells` and the baseline payload cells
  * of `GoldenArchiveSpec` and `CoderGoldenSpec`. A decoder refactor keeps
  * every digest. For the LCP cells, every `decompressBatch` slice and every
  * `decompressFrame` must equal the frames `decompressAll` returns.
  */
class DecodeDigestSpec extends AnyFunSuite {

  private def bits(a: Array[Double]): Array[Byte] = {
    val buf = java.nio.ByteBuffer.allocate(8 * a.length)
    a.foreach(buf.putDouble)
    buf.array()
  }

  private def sha256(frames: Seq[Frame]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    frames.foreach(f => Seq(f.x, f.y, f.z).foreach(d => md.update(bits(d))))
    md.digest().map("%02x".format(_)).mkString
  }

  private def sameFrame(a: Frame, b: Frame): Boolean =
    java.util.Arrays.equals(bits(a.x), bits(b.x)) && java.util.Arrays.equals(bits(a.y), bits(b.y)) &&
      java.util.Arrays.equals(bits(a.z), bits(b.z))

  for (c <- LcpGoldenCells.all)
    test(s"LCP decoded digest: ${c.name}") {
      val a   = LcpArchive.fromBytes(Lcp.compress(c.frames(), c.cfg).archive.toBytes)
      val all = Lcp.decompressAll(a)
      assert(sha256(all) == c.decodedDigest, s"DECODED ${c.name} -> ${sha256(all)}")
      for (b <- a.batches.indices) {
        val start = b * a.batchSize
        assert(Lcp.decompressBatch(a, b).corresponds(all.slice(start, start + a.batchSize))(sameFrame),
          s"batch $b")
      }
      for (f <- all.indices) assert(sameFrame(Lcp.decompressFrame(a, f), all(f)), s"frame $f")
    }

  test("LCP decoded digest: helium 500x2 then helium 600x2, eb 0.01, batch 4, the count changes at a mid-batch LCP-S frame") {
    val r = Lcp.compress(TestFrames.helium(500, 2) ++ TestFrames.helium(600, 2), LcpConfig(0.01, batchSize = 4))
    assert(r.methods.mkString == "STST")
    val a   = LcpArchive.fromBytes(r.archive.toBytes)
    val all = Lcp.decompressAll(a)
    assert(all.map(_.n) == Seq(500, 500, 600, 600))
    val want = "c92ca26f429480140764893e19f0da7a0a31557563a2d4392d2de3b4f87b76cf"
    assert(sha256(all) == want, s"DECODED decompressAll -> ${sha256(all)}")
    val batches = a.batches.indices.flatMap(Lcp.decompressBatch(a, _))
    assert(sha256(batches) == want, s"DECODED decompressBatch -> ${sha256(batches)}")
    val frames = a.entries.indices.map(Lcp.decompressFrame(a, _))
    assert(sha256(frames) == want, s"DECODED decompressFrame -> ${sha256(frames)}")
  }

  test("LCP golden archives decoded from several threads at once keep their digests") {
    val cells    = LcpGoldenCells.all
    val archives = cells.map(c => c.name -> LcpArchive.fromBytes(Lcp.compress(c.frames(), c.cfg).archive.toBytes)).toMap
    val digests  = new java.util.concurrent.ConcurrentLinkedQueue[(String, String)]
    // Each cell's frames through all three entry points: the whole archive,
    // every batch and every frame, concatenated in frame order.
    def decode(c: LcpGoldenCells.Cell): Unit = {
      val a = archives(c.name)
      digests.add(c.name -> sha256(Lcp.decompressAll(a)))
      digests.add(c.name -> sha256(a.batches.indices.flatMap(Lcp.decompressBatch(a, _))))
      digests.add(c.name -> sha256(a.entries.indices.map(Lcp.decompressFrame(a, _))))
    }
    // Four plain threads start the cells in rotated orders; the pool's own
    // threads run them nested in Fork.map.
    val threads = (0 until 4).map(k => new Thread(() => (cells.drop(k) ++ cells.take(k)).foreach(decode)))
    threads.foreach(_.start())
    Fork.map(cells)(decode)
    threads.foreach(_.join())
    val want = cells.map(c => c.name -> c.decodedDigest).toMap
    assert(digests.size == 3 * 5 * cells.size)
    digests.asScala.foreach { case (name, got) => assert(got == want(name), s"DECODED $name -> $got") }
  }

  private def baselineCell(codec: ParticleCodec, name: String, frames: => IndexedSeq[Frame], eb: Double,
                           batchSize: Int, digest: String): Unit =
    test(s"${codec.name} decoded digest: $name") {
      val got = sha256(codec.decompress(codec.compress(frames, eb, batchSize).payload))
      assert(got == digest, s"DECODED ${codec.name} $name -> $got")
    }

  private lazy val copper = TestFrames.copper(800, 8)

  for ((codec, digest) <- Seq[(ParticleCodec, String)](
         Sz2Like   -> "d2b60a0b80ab24d68a820a5a5110eb4211f28966e4e1b60bb9256d7b530aed7b",
         Sz3Like   -> "43b7997af514120a7fe7d7d0cc3d98c786380d03f122f4976aea31efda1a79bd",
         MdzLike   -> "fad81e618df2f02adddb282c3f1bdba53f640330a2f24017fbf8385cd38d21b4",
         SperrLike -> "958d45d3f2f61a84c6a76e44a16c14faa0512bf4e07628d3bf1144bdff43ffa9",
         ZfpLike   -> "a17c740bfa4ebe4a93e615dc9a3fab5164698cccd1af760fcc85f8104c062536",
         Tmc13Like -> "ca72d29660455df778d9be25f4e7ef36ee619e13b0ebd144955b0dd150cb2974",
         DracoLike -> "07cd682abdc6e0a600c936b849c0ee2e99f0fae5e70d11bb3461272d5fb6818a"))
    baselineCell(codec, "copper 800x8, eb 0.02, batch 4", copper, 0.02, 4, digest)

  for ((codec, few, many) <- Seq(
         (Sz2Like,
          "9bd2c7ce5269827b6b4f747af2d82e67984e6474665e722b2a231bef79b7a3b2",
          "4d1e219432def5891c6821f99d57122c03cc1bbec1878d5596f0b8bbbd7831d6"),
         (Sz3Like,
          "3767c91b90f41c4ca29fba1813b024f6ad34c81902cab18cf9153410b74ffcc6",
          "80f7523524fc8572dc33b2ebb348190646493e5b846e82efda6848718719c735"))) {
    baselineCell(codec, "frames of 1, 2, 3 and 17 particles, eb 0.02", TestFrames.fewParticles, 0.02, 1, few)
    baselineCell(codec, "helium 40000x1, eb 0.02", TestFrames.manyParticles, 0.02, 1, many)
  }

  baselineCell(MdzLike, "lj 600x9, eb 0.02, batch 3 (temporal in every batch)",
    TestFrames.lj(600, 9), 0.02, 3,
    "e170686d969fa98156466ad23edc047a512318e86cb9ee5579a53cbb7f0d1a66")
  baselineCell(MdzLike, "8 independent hacc frames of 500, eb 0.02, batch 4 (spatial in every batch)",
    IndexedSeq.tabulate(8)(s => Particles.hacc(500, 100 + s)), 0.02, 4,
    "9af1a779c1e4a5f246eb5ba1c60f4d0cf98f7d87cd4e33db1b6f2c78cbfce878")
}
