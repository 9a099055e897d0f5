package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestFrames
import repro.coding.Zigzag
import repro.core.Lcp._

/** `LcpArchive.fromBytes` on archives whose header counts were rewritten:
  * every count is checked before it is used, never truncated to an Int. */
class LcpArchiveSpec extends AnyFunSuite {

  private lazy val archive = Lcp.compress(TestFrames.copper(200, 4), LcpConfig(0.05, batchSize = 2)).archive

  private val empty = LcpArchive(0.1, 1.0, 4, 1, IndexedSeq.empty, IndexedSeq.empty, IndexedSeq.empty)

  /** `bytes` with header varint `k` (0 = batch size, 1 = p, 2 = frame
    * count; the varints follow the magic and two doubles) replaced by `v`. */
  private def withHeaderVarint(bytes: Array[Byte], k: Int, v: Long): Array[Byte] = {
    val in = new ByteArrayInputStream(bytes, 20, bytes.length - 20)
    (0 until k).foreach(_ => Zigzag.readVarLong(in))
    val start = bytes.length - in.available()
    Zigzag.readVarLong(in)
    val end = bytes.length - in.available()
    val out = new ByteArrayOutputStream()
    out.write(bytes, 0, start)
    Zigzag.writeVarLong(out, v)
    out.write(bytes, end, bytes.length - end)
    out.toByteArray
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
}
