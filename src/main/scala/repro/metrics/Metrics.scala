package repro.metrics

import repro.core.Frame

/** Evaluation metrics from §4 (CR, bit rate, eb, PSNR, speed) plus the
  * entropy / autocorrelation statistics of Table 2.
  */
object Metrics {

  /** The paper's datasets are stored in FP32, and its CR/bit-rate examples
    * assume 32-bit elements (§4). Our generators produce doubles, but sizes
    * are accounted in FP32 semantics for comparability. */
  val BytesPerElement = 4

  /** Original size of a frame sequence in bytes (3 coords × FP32). */
  def originalSizeBytes(frames: Seq[Frame]): Long =
    frames.map(f => 3L * BytesPerElement * f.n).sum

  /** Compression ratio size(D)/size(f(D)). */
  def compressionRatio(frames: Seq[Frame], compressedBytes: Long): Double =
    originalSizeBytes(frames).toDouble / compressedBytes

  /** Bits per element (3 elements per particle). */
  def bitRate(frames: Seq[Frame], compressedBytes: Long): Double =
    compressedBytes * 8.0 / frames.map(f => 3L * f.n).sum

  /** Max |d - d'| with correspondence `perm` (perm(i) = original index of
    * stored particle i; null = identity). */
  def maxAbsError(orig: Frame, recon: Frame, perm: Array[Int]): Double = {
    require(orig.n == recon.n, s"frame size mismatch ${orig.n} vs ${recon.n}")
    var m = 0.0
    var i = 0
    while (i < recon.n) {
      val j = if (perm == null) i else perm(i)
      m = math.max(m, math.abs(orig.x(j) - recon.x(i)))
      m = math.max(m, math.abs(orig.y(j) - recon.y(i)))
      m = math.max(m, math.abs(orig.z(j) - recon.z(i)))
      i += 1
    }
    m
  }

  /** Sum of squared errors with correspondence (see [[maxAbsError]]). */
  private def squaredError(orig: Frame, recon: Frame, perm: Array[Int]): Double = {
    require(orig.n == recon.n, s"frame size mismatch ${orig.n} vs ${recon.n}")
    var s = 0.0
    var i = 0
    while (i < recon.n) {
      val j = if (perm == null) i else perm(i)
      val dx = orig.x(j) - recon.x(i); val dy = orig.y(j) - recon.y(i); val dz = orig.z(j) - recon.z(i)
      s += dx * dx + dy * dy + dz * dz
      i += 1
    }
    s
  }

  /** PSNR over a frame sequence (Eq. 3): 20·log10(range/RMSE), range and
    * RMSE over all particles of all frames, so an empty frame adds nothing.
    * The three sequences must have one entry per frame, and each frame pair
    * the same particle count. */
  def psnr(orig: Seq[Frame], recon: Seq[Frame], perms: Seq[Array[Int]]): Double = {
    require(orig.nonEmpty, "PSNR of no frames")
    require(recon.size == orig.size && perms.size == orig.size,
      s"PSNR of ${orig.size} frames against ${recon.size} decoded frames and ${perms.size} permutations")
    val range = orig.map(_.valueRange).max
    val totalN = orig.map(_.n.toLong * 3).sum
    val sse = orig.lazyZip(recon).lazyZip(perms).map(squaredError).sum
    val rmse = math.sqrt(sse / totalN)
    if (rmse == 0) Double.PositiveInfinity else 20.0 * math.log10(range / rmse)
  }

  /** Shannon entropy (bits/symbol) of an integer array — Table 2. */
  def shannonEntropy(a: Array[Long]): Double = {
    if (a.isEmpty) return 0.0
    val freq = new scala.collection.mutable.LongMap[Long]()
    a.foreach(v => freq(v) = freq.getOrElse(v, 0L) + 1L)
    val n = a.length.toDouble
    -freq.valuesIterator.map { c => val p = c / n; p * math.log(p) / math.log(2) }.sum
  }

  /** Lag-1 autocorrelation of a sequence — Table 2. Returns 1 for constant
    * sequences (perfectly predictable ⇒ treat as fully correlated). */
  def lag1Autocorrelation(a: Array[Double]): Double = {
    if (a.length < 2) return 1.0
    val mean = a.sum / a.length
    var num = 0.0; var den = 0.0
    var i = 0
    while (i < a.length) {
      val d = a(i) - mean
      den += d * d
      if (i > 0) num += d * (a(i - 1) - mean)
      i += 1
    }
    if (den == 0) 1.0 else num / den
  }

  /** Floating-point-tolerant bound check: the mathematical guarantee
    * |d − d'| ≤ eb holds exactly in real arithmetic, but the reconstruction
    * formula (2q+1)·eb + min rounds at ~1 ulp; allow 1e-9 relative slack
    * (many orders of magnitude above ulp for every tested range, many
    * below any physically meaningful violation). */
  def withinBound(err: Double, eb: Double): Boolean = err <= eb * (1 + 1e-9)

  /** Wall-clock a thunk: (result, seconds). */
  def time[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Throughput in MB/s of original data processed in `seconds`. */
  def mbPerSec(origBytes: Long, seconds: Double): Double =
    origBytes / 1e6 / math.max(seconds, 1e-9)
}
