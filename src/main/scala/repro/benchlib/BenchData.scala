package repro.benchlib

import repro.baselines._
import repro.core.Frame
import repro.data.Particles

/** Bench-scale inputs and the codec roster (§8.1).
  *
  * Sizes target the SF≈0.1 regime of the brief (~100 MB of work overall):
  * the paper's datasets are GB–TB scale, ours keep the same structure at
  * 10⁴–10⁵ particles (see DESIGN.md §2).
  */
object BenchData {

  val MultiN: Int      = 40000
  val MultiFrames: Int = 32
  val SingleN: Int     = 100000

  /** All eight codecs of §8.1.3 minus TMC2, excluded exactly as the paper
    * excludes it (§8.2: point-count not preserved, 16-bit-only
    * quantization, 200–50 000× slower). */
  val codecs: Seq[ParticleCodec] = Seq(
    LcpCodec.full, Sz2Like, Sz3Like, MdzLike, ZfpLike, SperrLike, DracoLike, Tmc13Like)

  /** Multi-frame bench inputs (cached: generation is deterministic). */
  lazy val multiFrame: Seq[(String, IndexedSeq[Frame])] =
    Particles.multiFrame.map(s => s.name -> s.gen(MultiN, MultiFrames, 1000 + s.name.hashCode % 100))

  /** Single-frame inputs for all eight datasets (multi-frame sets contribute
    * their middle frame, as in §8.2.4). */
  lazy val singleFrame: Seq[(String, Frame)] =
    Particles.all.map { s =>
      if (s.multiFrame) s.name -> s.gen(SingleN, MultiFrames, 2000)(MultiFrames / 2)
      else s.name -> s.gen(SingleN, 1, 2000).head
    }

  /** Dataset names, without generating any frames. */
  val MultiNames: Seq[String]  = Particles.multiFrame.map(_.name)
  val SingleNames: Seq[String] = Particles.all.map(_.name)

  /** The multi-frame and single-frame inputs of one dataset. */
  def multi(name: String): IndexedSeq[Frame] = multiFrame.find(_._1 == name).get._2
  def single(name: String): Frame              = singleFrame.find(_._1 == name).get._2

  val PaperEbs: Seq[Double] = Seq(1e-1, 1e-2, 1e-3)
}
