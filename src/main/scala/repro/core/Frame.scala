package repro.core

/** One frame (time step) of particle data, structure-of-arrays: the three
  * location fields x, y, z the paper compresses (§2.1.2). Doubles (FP64).
  */
final case class Frame(x: Array[Double], y: Array[Double], z: Array[Double]) {
  require(x.length == y.length && y.length == z.length, "dim length mismatch")

  /** Particle count. */
  def n: Int = x.length

  /** A new frame with position i holding old `perm(i)`. `perm` may select a
    * subset (sampling) — the result has `perm.length` particles. */
  def reorder(perm: Array[Int]): Frame = {
    val m = perm.length
    val nx = new Array[Double](m); val ny = new Array[Double](m); val nz = new Array[Double](m)
    var i = 0
    while (i < m) { val j = perm(i); nx(i) = x(j); ny(i) = y(j); nz(i) = z(j); i += 1 }
    Frame(nx, ny, nz)
  }

  /** Minimum per dimension (0 for an empty frame, matching Eq. 5's min(D)). */
  def mins: (Double, Double, Double) =
    if (n == 0) (0.0, 0.0, 0.0) else (x.min, y.min, z.min)

  /** Value range max-min over all three dims (for PSNR, Eq. 3). */
  def valueRange: Double =
    if (n == 0) 0.0
    else math.max(x.max - x.min, math.max(y.max - y.min, z.max - z.min))
}

object Frame {
  /** Empty frame (zero particles). */
  val empty: Frame = Frame(Array.emptyDoubleArray, Array.emptyDoubleArray, Array.emptyDoubleArray)
}
