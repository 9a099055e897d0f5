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

  /** Spatial-slab sample of `f` of at most [[SampleSize]] particles: the
    * first [[SampleSize]] particles, in input order, at or below the
    * [[sampleCut]]. A strided subsample would *dilute* spatial density and
    * bias the chosen block size upward; a slab keeps local density (and
    * hence per-block occupancy) representative. */
  def sample(f: Frame): Frame = {
    if (f.n <= SampleSize) return f
    val cut  = sampleCut(f.x)
    val idx  = new Array[Int](SampleSize)
    var i    = 0
    var kept = 0
    while (i < f.n && kept < SampleSize) {
      if (f.x(i) <= cut) { idx(kept) = i; kept += 1 }
      i += 1
    }
    f.reorder(if (kept == SampleSize) idx else java.util.Arrays.copyOf(idx, kept))
  }

  /** The [[SampleSize]]-th smallest of `x` (n > [[SampleSize]]) in
    * `Arrays.sort` order: −0.0 before 0.0, NaN last. An O(n) radix
    * selection over the doubles' sortable bit keys, 11 bits at a time from
    * the top: each pass counts the digits of the keys left, keeps those in
    * the digit that holds the wanted rank and moves the rank past the
    * digits below it. A NaN comes back as the canonical NaN. */
  private[core] def sampleCut(x: Array[Double]): Double = {
    val keys = new Array[Long](x.length)
    var i = 0
    while (i < x.length) {
      // Unsigned order of the keys is `java.lang.Double.compare` order.
      val b = java.lang.Double.doubleToLongBits(x(i))
      keys(i) = b ^ ((b >> 63) | Long.MinValue)
      i += 1
    }
    val count = new Array[Int](1 << 11)
    var len   = x.length
    var rank  = SampleSize - 1
    var shift = 64 - 11
    while (shift >= 0) {
      java.util.Arrays.fill(count, 0)
      i = 0
      while (i < len) { count(((keys(i) >>> shift) & 0x7ff).toInt) += 1; i += 1 }
      var d = 0
      while (rank >= count(d)) { rank -= count(d); d += 1 }
      var kept = 0
      i = 0
      while (i < len) { if (((keys(i) >>> shift) & 0x7ff) == d) { keys(kept) = keys(i); kept += 1 }; i += 1 }
      len = kept
      shift = if (shift == 0) -1 else math.max(0, shift - 11)
    }
    // Every key left is the wanted one.
    val k = keys(0)
    java.lang.Double.longBitsToDouble(if (k < 0) k ^ Long.MinValue else ~k)
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
