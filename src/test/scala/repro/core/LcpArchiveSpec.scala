package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import org.scalatest.funsuite.AnyFunSuite
import repro.{BadHeaders, TestFrames}
import repro.coding.{ByteIO, Zigzag}
import repro.core.Lcp._

/** `LcpArchive.fromBytes` on archives whose header counts or S/T choices
  * were rewritten: every count is checked before it is used, never
  * truncated to an Int, the lists must have the sizes the S/T choices
  * imply, and no byte may follow the last batch. */
class LcpArchiveSpec extends AnyFunSuite {

  private lazy val archive = Lcp.compress(TestFrames.copper(200, 4), LcpConfig(0.05, batchSize = 2)).archive

  private val empty = LcpArchive(0.1, 1.0, 4, 1, IndexedSeq.empty, IndexedSeq.empty, IndexedSeq.empty)

  /** The offsets where header varint `k` (0 = batch size, 1 = p, 2 = frame
    * count, the length of the S/T section; the varints follow the magic and
    * two doubles) starts and ends. */
  private def headerVarint(bytes: Array[Byte], k: Int): (Int, Int) = {
    val in = new ByteArrayInputStream(bytes, 20, bytes.length - 20)
    (0 until k).foreach(_ => Zigzag.readVarLong(in))
    val start = bytes.length - in.available()
    Zigzag.readVarLong(in)
    (start, bytes.length - in.available())
  }

  /** `bytes` with header varint `k` replaced by `v`. */
  private def withHeaderVarint(bytes: Array[Byte], k: Int, v: Long): Array[Byte] = {
    val (start, end) = headerVarint(bytes, k)
    val out = new ByteArrayOutputStream()
    out.write(bytes, 0, start)
    Zigzag.writeVarLong(out, v)
    out.write(bytes, end, bytes.length - end)
    out.toByteArray
  }

  test("compressedSizeBytes is the length of toBytes: golden cells, one frame, empty frames, batch size 1") {
    val archives = LcpGoldenCells.all.map(c => Lcp.compress(c.frames(), c.cfg).archive) ++ Seq(
      Lcp.compress(IndexedSeq(TestFrames.bunny(300)), LcpConfig(0.01)).archive,
      Lcp.compress(IndexedSeq(Frame.empty, Frame.empty, Frame.empty), LcpConfig(0.01, batchSize = 2)).archive,
      Lcp.compress(TestFrames.helium(300, 5), LcpConfig(0.01, batchSize = 1)).archive,
      empty)
    for (a <- archives) assert(a.compressedSizeBytes == a.toBytes.length)
  }

  test("rewriting a header varint to its own value keeps the archive") {
    val bytes = archive.toBytes
    (0 to 2).foreach { k =>
      val value = Seq(archive.batchSize, archive.p, archive.numFrames)(k).toLong
      assert(withHeaderVarint(bytes, k, value).sameElements(bytes))
    }
  }

  test("a frame count of 2^32 is rejected, not read as 0 frames") {
    val bytes = withHeaderVarint(empty.toBytes, 2, 1L << 32)
    intercept[IllegalArgumentException](LcpArchive.fromBytes(bytes))
  }

  test("a frame count of 2^32 + 4 is rejected, not read as 4 frames") {
    val bytes = withHeaderVarint(archive.toBytes, 2, (1L << 32) + archive.numFrames)
    intercept[IllegalArgumentException](LcpArchive.fromBytes(bytes))
  }

  test("a frame count above the bytes remaining is rejected") {
    val bytes = archive.toBytes
    intercept[IllegalArgumentException](LcpArchive.fromBytes(withHeaderVarint(bytes, 2, bytes.length.toLong)))
  }

  test("a batch count of 2^32 is rejected, not read as 0 batches") {
    val bytes = empty.toBytes
    assert(bytes.last == 0)
    val out = new ByteArrayOutputStream()
    out.write(bytes, 0, bytes.length - 1)
    Zigzag.writeVarLong(out, 1L << 32)
    intercept[IllegalArgumentException](LcpArchive.fromBytes(out.toByteArray))
  }

  test("a batch size below 1 or beyond an Int is rejected") {
    for (size <- Seq(0L, -1L, 1L << 32))
      intercept[IllegalArgumentException](LcpArchive.fromBytes(withHeaderVarint(archive.toBytes, 0, size)))
  }

  test("an archive header eb that is not finite and above 0 is rejected, also by copy") {
    val bytes = archive.toBytes
    assert(BadHeaders.withDoubleAt(bytes, 4, archive.eb).sameElements(bytes))
    for (eb <- BadHeaders.HeaderEbs) withClue(s"eb = $eb") {
      val e = intercept[IllegalArgumentException](LcpArchive.fromBytes(BadHeaders.withDoubleAt(bytes, 4, eb)))
      assert(e.getMessage.contains(s"archive error bound must be finite and > 0, got $eb"), e.getMessage)
      intercept[IllegalArgumentException](archive.copy(eb = eb))
    }
  }

  test("an archive anchor eb scale below 1 or not finite is rejected, also by copy") {
    val bytes = archive.toBytes
    assert(BadHeaders.withDoubleAt(bytes, 12, archive.anchorEbScale).sameElements(bytes))
    for (scale <- Seq(0.5, 0.0, -1.0, Double.NaN, Double.PositiveInfinity)) withClue(s"scale = $scale") {
      val e = intercept[IllegalArgumentException](LcpArchive.fromBytes(BadHeaders.withDoubleAt(bytes, 12, scale)))
      assert(e.getMessage.contains(s"anchor eb scale factor must be finite and >= 1, got $scale"), e.getMessage)
      intercept[IllegalArgumentException](archive.copy(anchorEbScale = scale))
    }
  }

  test("an archive block size p that is not a power of two is rejected, also by copy") {
    for (p <- BadHeaders.Ps :+ 0) withClue(s"p = $p") {
      val e = intercept[IllegalArgumentException](LcpArchive.fromBytes(withHeaderVarint(archive.toBytes, 1, p.toLong)))
      assert(e.getMessage.contains("power of two"), e.getMessage)
      intercept[IllegalArgumentException](archive.copy(p = p))
    }
  }

  // Real archives whose S/T choices or lists are rewritten: the rewrite keeps
  // the header and writes the rest in `toBytes`'s layout, bypassing the
  // checks that `copy` now applies.

  /** Helium 500×12 at eb 0.01, batch 4: frames `S T T T | T T T T | T T T T`,
    * one anchor, batches of 3, 4 and 4 payloads. */
  private lazy val helium = Lcp.compress(TestFrames.helium(500, 12), LcpConfig(0.01, batchSize = 4)).archive

  /** Helium then copper frames at batch 4: batch 1's head starts the copper
    * run as a second anchor, and batch 2's temporal head predicts from it. */
  private lazy val twoAnchors = Lcp.compress(TestFrames.heliumThenCopper(500, 12), LcpConfig(0.01, batchSize = 4)).archive

  private def table(a: LcpArchive): String =
    a.temporal.map(t => if (t) 'T' else 'S').grouped(a.batchSize).map(_.mkString).mkString("|")

  /** `a`'s bytes with its header kept and the rest written from the given
    * S/T choices and lists. */
  private def rewritten(a: LcpArchive)(temporal: IndexedSeq[Boolean] = a.temporal,
                                       anchors: IndexedSeq[Array[Byte]] = a.anchors,
                                       batches: IndexedSeq[IndexedSeq[Array[Byte]]] = a.batches): Array[Byte] = {
    val bytes = a.toBytes
    val out   = new ByteArrayOutputStream()
    out.write(bytes, 0, headerVarint(bytes, 2)._1)
    ByteIO.writeSection(out, temporal.map(t => (if (t) 1 else 0).toByte).toArray)
    ByteIO.writeSections(out, anchors)
    Zigzag.writeVarLong(out, batches.size.toLong)
    batches.foreach(ByteIO.writeSections(out, _))
    out.toByteArray
  }

  private def rejected(bytes: Array[Byte]): Unit =
    intercept[IllegalArgumentException](LcpArchive.fromBytes(bytes))

  test("the rewrite of an unchanged archive is its own bytes, and the test tables are as documented") {
    for (a <- Seq(helium, twoAnchors)) assert(rewritten(a)().sameElements(a.toBytes))
    assert(table(helium) == "STTT|TTTT|TTTT")
    assert(helium.anchors.size == 1 && helium.batches.map(_.size) == Seq(3, 4, 4))
    assert(twoAnchors.anchors.size == 2 && twoAnchors.entries(4).inAnchor, table(twoAnchors))
    assert(twoAnchors.entries(8).temporal && twoAnchors.entries(8).anchorRef == 1, table(twoAnchors))
  }

  test("frameTable derives slots and anchor references from the S/T choices") {
    val t = LcpArchive.frameTable("STTSTTT".map(_ == 'T'), 3)
    assert(t == IndexedSeq(
      FrameEntry(temporal = false, inAnchor = true, 0, -1), FrameEntry(temporal = true, inAnchor = false, 0, -1),
      FrameEntry(temporal = true, inAnchor = false, 1, -1), FrameEntry(temporal = false, inAnchor = true, 1, -1),
      FrameEntry(temporal = true, inAnchor = false, 0, -1), FrameEntry(temporal = true, inAnchor = false, 1, -1),
      FrameEntry(temporal = true, inAnchor = false, 0, 1)))
    intercept[IllegalArgumentException](LcpArchive.frameTable(IndexedSeq(true), 1))
    intercept[IllegalArgumentException](LcpArchive.frameTable(IndexedSeq(false), 0))
  }

  test("copy checks the frame table and lists as fromBytes does") {
    intercept[IllegalArgumentException](helium.copy(batches = helium.batches.init))
    intercept[IllegalArgumentException](helium.copy(temporal = helium.temporal.updated(4, false)))
  }

  test("a dropped last batch list is rejected") {
    rejected(rewritten(helium)(batches = helium.batches.init))
  }

  test("an extra empty batch is rejected") {
    rejected(rewritten(helium)(batches = helium.batches :+ IndexedSeq.empty))
  }

  test("an extra anchor is rejected") {
    rejected(rewritten(helium)(anchors = helium.anchors :+ helium.anchors(0)))
  }

  test("an extra payload in batch 0 is rejected") {
    rejected(rewritten(helium)(batches = helium.batches.updated(0, helium.batches(0) :+ helium.batches(0)(0))))
  }

  test("a header batch size other than the frame table's is rejected") {
    for (size <- Seq(3L, 5L)) rejected(withHeaderVarint(helium.toBytes, 0, size))
  }

  test("a temporal frame 0 is rejected") {
    rejected(rewritten(helium)(temporal = helium.temporal.updated(0, true)))
  }

  test("a method byte other than 0 (LCP-S) or 1 (LCP-T) is rejected") {
    val bytes = helium.toBytes
    bytes(headerVarint(bytes, 2)._2 + 1) = 2 // frame 1, an LCP-T frame
    rejected(bytes)
  }

  test("a flipped batch-head choice is rejected: frame 4 S to T, frame 8 T to S") {
    rejected(rewritten(twoAnchors)(temporal = twoAnchors.temporal.updated(4, true)))
    rejected(rewritten(twoAnchors)(temporal = twoAnchors.temporal.updated(8, false)))
  }

  test("a flipped non-head choice fails at decode naming the frame, batch and method: frames 1, 2, 5 T to S") {
    for (k <- Seq(1, 2, 5)) {
      val a = LcpArchive.fromBytes(rewritten(helium)(temporal = helium.temporal.updated(k, false)))
      val e = intercept[IllegalArgumentException](Lcp.decompressAll(a))
      assert(e.getMessage.startsWith(s"LCP archive: frame $k (batch ${k / 4}, stored as LCP-S) does not decode: "),
        e.getMessage)
      assert(e.getCause.isInstanceOf[IllegalArgumentException] && e.getMessage.endsWith(e.getCause.getMessage))
      assert(intercept[IllegalArgumentException](Lcp.decompressBatch(a, k / 4)).getMessage == e.getMessage)
      assert(intercept[IllegalArgumentException](Lcp.decompressFrame(a, k)).getMessage == e.getMessage)
    }
  }

  test("with undecodable frames in batches 1 and 2, decompressAll raises batch 1's error") {
    // Frame 7 ends batch 1; frame 9 fails earlier in its own batch.
    val a = LcpArchive.fromBytes(rewritten(helium)(temporal = helium.temporal.updated(7, false).updated(9, false)))
    val e = intercept[IllegalArgumentException](Lcp.decompressAll(a))
    assert(e.getMessage.startsWith("LCP archive: frame 7 (batch 1, stored as LCP-S) does not decode: "), e.getMessage)
    assert(intercept[IllegalArgumentException](Lcp.decompressBatch(a, 1)).getMessage == e.getMessage)
    assert(intercept[IllegalArgumentException](Lcp.decompressBatch(a, 2)).getMessage
      .startsWith("LCP archive: frame 9 (batch 2, stored as LCP-S) does not decode: "))
  }

  test("with undecodable frames 1 and 3 of one batch, every entry point names frame 1") {
    // Frame 3's chain runs through frame 1, which fails first in frame order.
    val b0 = helium.batches(0)
    val a  = LcpArchive.fromBytes(rewritten(helium)(batches =
      helium.batches.updated(0, b0.updated(0, b0(0) ++ Array[Byte](0, 0)).updated(2, b0(2) ++ Array[Byte](0, 0, 0)))))
    val want = "LCP archive: frame 1 (batch 0, stored as LCP-T) does not decode: "
    val e    = intercept[IllegalArgumentException](Lcp.decompressAll(a))
    assert(e.getMessage.startsWith(want) && e.getMessage.endsWith("2 bytes after the frame body"), e.getMessage)
    assert(intercept[IllegalArgumentException](Lcp.decompressBatch(a, 0)).getMessage == e.getMessage)
    assert(intercept[IllegalArgumentException](Lcp.decompressFrame(a, 3)).getMessage == e.getMessage)
    assert(intercept[IllegalArgumentException](Lcp.decompressFrame(a, 1)).getMessage == e.getMessage)
  }

  test("an LCP-T payload with width-0 arrays of 2^31 - 1 values is rejected naming the frame, before allocating") {
    val width0 = Array(0, 0xff, 0xff, 0xff, 0xff, 0x07, 0, 0).map(_.toByte) // fixed, count, width 0, no payload
    // The header count is 2^31 - 1, then the basis's own 500.
    for (count <- Seq(Int.MaxValue, 500)) withClue(s"header count $count: ") {
      val out = new ByteArrayOutputStream()
      Zigzag.writeVarLong(out, count.toLong)
      ByteIO.writeDouble(out, 0.01)
      ByteIO.writeBody(out, width0, width0, width0)
      val a    = LcpArchive.fromBytes(rewritten(helium)(batches =
        helium.batches.updated(0, helium.batches(0).updated(0, out.toByteArray))))
      val want = "LCP archive: frame 1 (batch 0, stored as LCP-T) does not decode: "
      val e    = intercept[IllegalArgumentException](Lcp.decompressAll(a))
      assert(e.getMessage.startsWith(want), e.getMessage)
      assert(intercept[IllegalArgumentException](Lcp.decompressBatch(a, 0)).getMessage == e.getMessage)
      assert(intercept[IllegalArgumentException](Lcp.decompressFrame(a, 2)).getMessage == e.getMessage)
    }
  }

  test("bytes after the last batch are rejected") {
    rejected(helium.toBytes :+ 0.toByte)
  }

  test("retrieval indices outside the archive fail fast") {
    intercept[IllegalArgumentException](Lcp.decompressBatch(helium, 3))
    intercept[IllegalArgumentException](Lcp.decompressBatch(helium, -1))
    for (i <- Seq(-1, 12)) intercept[IllegalArgumentException](Lcp.decompressFrame(helium, i))
  }

  test("bytes after a payload frame's body fail at decode naming the frame") {
    val a = helium.copy(batches = helium.batches.map(_.map(_ ++ Array[Byte](0, 0))))
    val e = intercept[IllegalArgumentException](Lcp.decompressAll(LcpArchive.fromBytes(a.toBytes)))
    assert(e.getMessage.startsWith("LCP archive: frame 1 (batch 0, stored as LCP-T) does not decode: "), e.getMessage)
    assert(e.getMessage.endsWith("2 bytes after the frame body"), e.getMessage)
  }

  test("fromFrames places frames given in frame order as compress does") {
    for (a <- Seq(helium, twoAnchors, archive)) {
      val frames = a.entries.indices.map { i =>
        val e = a.entries(i)
        if (e.inAnchor) a.anchors(e.slot) else a.batches(i / a.batchSize)(e.slot)
      }
      val placed = LcpArchive.fromFrames(a.eb, a.anchorEbScale, a.batchSize, a.p, a.temporal, frames)
      assert(placed.toBytes.sameElements(a.toBytes), table(a))
    }
  }
}
