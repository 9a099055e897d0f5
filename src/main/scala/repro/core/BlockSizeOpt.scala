package repro.core

/** Dynamic block-size optimization (§7.4.1).
  *
  * The CR-vs-block-size curve is neither monotonic nor unimodal, so instead
  * of a search the paper evaluates the offline-derived candidate set
  * p = 2^k, 0 ≤ k ≤ 16 on a sample of the input and keeps the best.
  *
  * Candidates are scored by actually compressing a spatial sample with
  * LCP-S (including the Zstd stage — a pre-Zstd estimate mispredicts
  * configurations whose redundancy only the dictionary coder removes).
  * The sample is quantized once and every candidate runs the encode step
  * of `LcpS.compress`, without its reconstruction, all candidates
  * concurrently ([[Fork]]); the 16 K sample keeps the whole sweep a small
  * multiple of one full compression, matching the paper's mid-tier
  * compression speed.
  */
object BlockSizeOpt {

  /** Candidate block-size parameters (block side = 2·eb·p). */
  val Candidates: Seq[Int] = (0 to 16).map(1 << _)

  /** Max sampled particles per candidate evaluation. */
  val SampleSize = 16384

  /** Spatial-slab sample of `f` of at most [[SampleSize]] particles: all
    * particles below the x-quantile. A strided subsample would *dilute*
    * spatial density and bias the chosen block size upward; a slab keeps
    * local density (and hence per-block occupancy) representative. */
  def sample(f: Frame): Frame = {
    if (f.n <= SampleSize) return f
    val xs = f.x.clone()
    java.util.Arrays.sort(xs)
    val cut = xs(SampleSize - 1)
    val idx = Array.newBuilder[Int]
    var i = 0
    var kept = 0
    while (i < f.n && kept < SampleSize) {
      if (f.x(i) <= cut) { idx += i; kept += 1 }
      i += 1
    }
    f.reorder(idx.result())
  }

  /** Pick the candidate minimizing the LCP-S compressed size on a sample
    * of the frame. Candidates whose block already exceeds the sample's
    * spatial extent are collapsed to one representative (they all produce
    * a single block and identical output), trimming the sweep's cost.
    * Returns (bestP, sampled sizes per candidate).
    */
  def bestBlockSize(f: Frame, eb: Double): (Int, Map[Int, Long]) = {
    val s = sample(f)
    if (s.n == 0) return (Candidates.head, Map.empty)
    val range  = math.max(s.valueRange, 2 * eb)
    val pCover = range / (2 * eb) // block side >= extent at this p
    val live   = Candidates.filter(_ <= pCover) match {
      case ps if ps.size < Candidates.size => ps :+ Candidates(math.min(ps.size, Candidates.size - 1))
      case ps                              => ps
    }
    val qs    = Quantizer.quantizeFrame(s, eb)
    val sizes = live.zip(Fork.map(live)(p => LcpS.encode(qs, p)._1.length.toLong)).toMap
    (live.minBy(sizes), sizes)
  }
}
