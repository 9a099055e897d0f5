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
    if (n == 0) (0.0, 0.0, 0.0) else (Frame.min(x), Frame.min(y), Frame.min(z))

  /** Value range max-min over all three dims (for PSNR, Eq. 3). */
  def valueRange: Double =
    if (n == 0) 0.0
    else math.max(Frame.span(x), math.max(Frame.span(y), Frame.span(z)))
}

object Frame {
  /** Empty frame (zero particles). */
  val empty: Frame = Frame(Array.emptyDoubleArray, Array.emptyDoubleArray, Array.emptyDoubleArray)

  // The extrema order values by `java.lang.Double.compare` (−0.0 below 0.0,
  // NaN above everything) and keep the first of equal values, as Scala's
  // `min`/`max` on doubles do: the minima go into every codec's header.

  /** Smallest value of a non-empty array. */
  private def min(a: Array[Double]): Double = {
    var m = a(0)
    var i = 1
    while (i < a.length) { if (java.lang.Double.compare(a(i), m) < 0) m = a(i); i += 1 }
    m
  }

  /** Largest minus smallest value of a non-empty array. */
  private def span(a: Array[Double]): Double = {
    var lo = a(0)
    var hi = a(0)
    var i  = 1
    while (i < a.length) {
      val v = a(i)
      if (java.lang.Double.compare(v, lo) < 0) lo = v
      if (java.lang.Double.compare(v, hi) > 0) hi = v
      i += 1
    }
    hi - lo
  }
}
