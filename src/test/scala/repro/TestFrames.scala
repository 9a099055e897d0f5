package repro

import org.scalacheck.Gen
import repro.core.Frame
import repro.core.Lcp.LcpConfig
import repro.data.Particles

/** Shared small inputs for unit tests (SF-like scale: a few thousand
  * particles, a handful of frames — the SF=0.01 regime of the brief).
  */
object TestFrames {

  def copper(n: Int = 2000, frames: Int = 6): IndexedSeq[Frame]  = Particles.copper(n, frames, 11)
  def helium(n: Int = 2000, frames: Int = 6): IndexedSeq[Frame]  = Particles.helium(n, frames, 12)
  def lj(n: Int = 2000, frames: Int = 6): IndexedSeq[Frame]      = Particles.lj(n, frames, 13)
  def yiip(n: Int = 2000, frames: Int = 6): IndexedSeq[Frame]    = Particles.yiip(n, frames, 14)
  /** Four Helium frames, then `frames - 4` Copper frames of the same
    * particle count: a break that a batch-4 archive starts a second anchor at. */
  def heliumThenCopper(n: Int, frames: Int): IndexedSeq[Frame] = helium(n, 4) ++ copper(n, frames - 4)
  def bunny(n: Int = 2000): Frame                                = Particles.bunZipper(n, 15)
  def hacc(n: Int = 3000): Frame                                 = Particles.hacc(n, 16)
  def warpx(n: Int = 3000): Frame                                = Particles.warpx(n, 17)
  def threeDep(n: Int = 3000): Frame                             = Particles.threeDep(n, 18)

  /** Single frames of 1, 2, 3 and 17 particles: the sizes at which SZ3's
    * interpolation levels start and stop. */
  def fewParticles: IndexedSeq[Frame] = IndexedSeq(1, 2, 3, 17).map(n => helium(n, 1).head)

  /** One frame of 40 000 particles: SZ3's top interpolation stride is
    * capped at 2^14 there, below the largest power of two under n. */
  def manyParticles: IndexedSeq[Frame] = helium(40000, 1)

  /** One small frame of every dataset (names match the paper's Table 1). */
  def oneOfEach: Seq[(String, Frame)] = Seq(
    "BUN-ZIPPER" -> bunny(), "Copper" -> copper().head, "Helium" -> helium().head,
    "LJ" -> lj().head, "YIIP" -> yiip().head, "HACC" -> hacc(),
    "WarpX" -> warpx(), "3DEP" -> threeDep())

  /** Random frame generator for property tests: clustered coordinates of
    * mixed sign and scale. */
  val frameGen: Gen[Frame] = for {
    n     <- Gen.choose(0, 400)
    scale <- Gen.oneOf(1.0, 50.0, 1000.0)
    shift <- Gen.oneOf(-100.0, 0.0, 42.0)
    seed  <- Gen.choose(0L, 1000000L)
  } yield {
    val rng = new java.util.Random(seed)
    Frame(
      Array.fill(n)(shift + rng.nextDouble() * scale),
      Array.fill(n)(shift + rng.nextDouble() * scale),
      Array.fill(n)(shift + rng.nextGaussian() * scale / 4))
  }

  val ebGen: Gen[Double] = Gen.oneOf(1e-1, 1e-2, 1e-3, 0.5, 2.0)

  /** Two frames on an extreme grid (tiny eb, wide extents, p = 1 or swept):
    * up to 30 particles, the second frame a small shift of the first. */
  val extremeGridGen: Gen[(IndexedSeq[Frame], LcpConfig)] = for {
    n      <- Gen.choose(1, 30)
    extent <- Gen.oneOf(1.0, 1e3, 1e4)
    shift  <- Gen.oneOf(-5e3, 0.0, 42.0)
    eb     <- Gen.oneOf(1e-6, 1e-7, 1e-8)
    p      <- Gen.oneOf(Option(1), None)
    seed   <- Gen.choose(0L, 1000000L)
  } yield {
    val rng = new java.util.Random(seed)
    def dim() = Array.fill(n)(shift + rng.nextDouble() * extent)
    val f0 = Frame(dim(), dim(), dim())
    val f1 = Frame(f0.x.map(_ + 1e-3), f0.y.clone(), f0.z.map(_ - 2e-3))
    (IndexedSeq(f0, f1), LcpConfig(eb, batchSize = 2, blockSizeP = p))
  }
}
