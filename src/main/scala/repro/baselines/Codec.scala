package repro.baselines

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import repro.coding.{ByteIO, IntCoder}
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

/** Frame-wise codec with LCP-T's frame layout ([[Quantizer.writeFrame]], no fields):
  * [[arraysPerDim]] `IntCoder` arrays per coordinate, the first holding one
  * index per particle. A subtype supplies only how one coordinate array
  * maps to its arrays and back, and the three coordinates are coded
  * concurrently ([[Fork]]). Order-preserving.
  */
trait SzFrameCodec extends FrameWiseCodec {
  protected def arraysPerDim: Int = 1

  /** The coded arrays of `v`, whose values are all finite. */
  protected def encodeDim(v: Array[Double], eb: Double): Seq[Array[Byte]]

  /** The values [[encodeDim]] reconstructs from its decoded arrays. */
  protected def decodeDim(arrays: Seq[Array[Long]], eb: Double): Array[Double]

  final override def compressFrame(f: Frame, eb: Double): (Array[Byte], Array[Int]) = {
    val dims = Fork.map(Seq(f.x, f.y, f.z)) { v =>
      v.foreach(Quantizer.finite(_))
      encodeDim(v, eb)
    }
    (Quantizer.writeFrame(f.n, eb, dims.flatten)(_ => ()), null)
  }

  final override def decompressFrame(bytes: Array[Byte]): Frame = {
    val (n, eb, _, sections) = Quantizer.readFrame(bytes, 3 * arraysPerDim, name)(_ => ())
    val dims = Fork.map(sections.toSeq.grouped(arraysPerDim).toSeq) { dim =>
      val arrays = dim.map(s => IntCoder.decode(new ByteArrayInputStream(s), n))
      // The first array bounds the header's count.
      require(arrays.head.length == n, s"$name: ${arrays.head.length} indices for $n particles")
      decodeDim(arrays, eb)
    }
    Frame(dims(0), dims(1), dims(2))
  }
}
