package repro.baselines

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import repro.coding.{ByteIO, IntCoder, Zigzag}
import repro.core.{Fork, Frame, Quantizer}

/** Compression result: the serialized payload (all metadata included) plus
  * the per-frame input→stored correspondence for fidelity metrics
  * (`null` entry = identity, for order-preserving codecs).
  */
final case class Compressed(payload: Array[Byte], perms: IndexedSeq[Array[Int]])

/** Uniform interface over LCP and the eight baselines (§8.1.3) so every
  * bench sweeps the same API: multi-frame in, one self-contained payload
  * out, frames back on decompress.
  */
trait ParticleCodec {
  def name: String

  /** False for codecs that cannot honour an arbitrary absolute bound
    * (Draco, §8.1.3) — they receive `eb` only as a quality hint, which
    * must still be finite and above 0. */
  def errorBounded: Boolean = true

  /** Compress `frames` at error bound `eb`; an `eb` that is not finite
    * and above 0 raises an `IllegalArgumentException` naming it
    * ([[Quantizer.requireBound]]). */
  def compress(frames: IndexedSeq[Frame], eb: Double, batchSize: Int): Compressed

  def decompress(payload: Array[Byte]): IndexedSeq[Frame]
}

/** Base for codecs that compress every frame independently. The frames
  * compress and decompress concurrently ([[Fork]]). */
trait FrameWiseCodec extends ParticleCodec {
  /** Compress one frame; returns (bytes, perm-or-null). */
  def compressFrame(f: Frame, eb: Double): (Array[Byte], Array[Int])

  def decompressFrame(bytes: Array[Byte]): Frame

  final override def compress(frames: IndexedSeq[Frame], eb: Double, batchSize: Int): Compressed = {
    Quantizer.requireBound(eb, s"$name error bound")
    val results = Fork.map(frames)(compressFrame(_, eb))
    val out     = new ByteArrayOutputStream()
    ByteIO.writeSections(out, results.map(_._1))
    Compressed(out.toByteArray, results.map(_._2))
  }

  final override def decompress(payload: Array[Byte]): IndexedSeq[Frame] = {
    val in     = new ByteArrayInputStream(payload)
    val frames = ByteIO.readSections(in)
    ByteIO.requireEnd(in, s"the last $name frame")
    Fork.map(frames)(decompressFrame)
  }
}

/** Frame-wise codec with the SZ frame layout: the particle count, the
  * error bound, then a body of three sections, one `IntCoder` array of
  * residual bin indices per coordinate (no delta). A subtype supplies only
  * how one coordinate array maps to its indices and back, and the three
  * coordinates are coded concurrently ([[Fork]]). Order-preserving.
  */
trait SzFrameCodec extends FrameWiseCodec {
  /** One residual bin index per value of `v`. */
  protected def encodeDim(v: Array[Double], eb: Double): Array[Long]

  /** The values [[encodeDim]] reconstructs from its indices `q`. */
  protected def decodeDim(q: Array[Long], eb: Double): Array[Double]

  final override def compressFrame(f: Frame, eb: Double): (Array[Byte], Array[Int]) = {
    val out = new ByteArrayOutputStream(f.n + 64)
    Zigzag.writeVarLong(out, f.n.toLong)
    ByteIO.writeDouble(out, eb)
    ByteIO.writeBody(out, Fork.map(Seq(f.x, f.y, f.z))(dim => IntCoder.encode(encodeDim(dim, eb), delta = false)): _*)
    (out.toByteArray, null)
  }

  final override def decompressFrame(bytes: Array[Byte]): Frame = {
    val in = new ByteArrayInputStream(bytes)
    val n  = ByteIO.readCount(in, Int.MaxValue, s"$name particle count")
    val eb = Quantizer.requireBound(ByteIO.readDouble(in), s"$name error bound")
    val dims = Fork.map(ByteIO.readBody(in, 3).toSeq) { section =>
      val q = IntCoder.decode(new ByteArrayInputStream(section), n)
      // One index per value, so the decoded array bounds the header's count.
      require(q.length == n, s"$name: ${q.length} indices for $n particles")
      decodeDim(q, eb)
    }
    Frame(dims(0), dims(1), dims(2))
  }
}
