package repro.baselines

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import repro.coding.ByteIO
import repro.core.Frame

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
    * (Draco, §8.1.3) — they receive `eb` only as a quality hint. */
  def errorBounded: Boolean = true

  def compress(frames: IndexedSeq[Frame], eb: Double, batchSize: Int): Compressed

  def decompress(payload: Array[Byte]): IndexedSeq[Frame]
}

/** Base for codecs that compress every frame independently. */
trait FrameWiseCodec extends ParticleCodec {
  /** Compress one frame; returns (bytes, perm-or-null). */
  def compressFrame(f: Frame, eb: Double): (Array[Byte], Array[Int])

  def decompressFrame(bytes: Array[Byte]): Frame

  final override def compress(frames: IndexedSeq[Frame], eb: Double, batchSize: Int): Compressed = {
    val results = frames.map(compressFrame(_, eb))
    val out     = new ByteArrayOutputStream()
    ByteIO.writeSections(out, results.map(_._1))
    Compressed(out.toByteArray, results.map(_._2))
  }

  final override def decompress(payload: Array[Byte]): IndexedSeq[Frame] =
    ByteIO.readSections(new ByteArrayInputStream(payload)).map(decompressFrame)
}
