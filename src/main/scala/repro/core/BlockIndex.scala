package repro.core

import repro.core.Quantizer.QFrame

/** Spatial block grid (§6.2.1, Eq. 6). Block side is `2·eb·p`, so a
  * particle's per-dim block index is just its quantization bin divided by
  * `p`, and its relative position inside the block is the remainder —
  * no second pass over the raw coordinates is needed.
  */
object BlockIndex {

  /** Grouping of a quantized frame into non-empty spatial blocks, with the
    * particles sorted by linearized block id.
    *
    * @param blockIds   sorted ids of the non-empty blocks (empty blocks are
    *                   never materialized — §6.2.1)
    * @param counts     particles per non-empty block (aligned with blockIds)
    * @param relX/Y/Z   relative positions (q mod p) in block order
    * @param perm       perm(i) = original index of the particle stored at i
    * @param p          bins per block side
    * @param bnx/bny    block-grid extent in x and y (needed to delinearize)
    */
  final case class Grouped(blockIds: Array[Long], counts: Array[Long],
                           relX: Array[Long], relY: Array[Long], relZ: Array[Long],
                           perm: Array[Int], p: Int, bnx: Long, bny: Long)

  /** k for a block side of p = 2^k bins; every encoder and decoder entry
    * that takes a p rejects any other p here. */
  def blockBits(p: Int): Int = {
    require(p >= 1 && (p & (p - 1)) == 0, s"block size parameter p must be a power of two >= 1: $p")
    Integer.numberOfTrailingZeros(p)
  }

  /** Largest number of blocks a grid may have: linear block ids stay below
    * it, so they and their zigzag-coded deltas fit in a Long. */
  val MaxGridCells: Long = 1L << 62

  /** A grid of `bnx × bny × bnz` blocks has at most [[MaxGridCells]]
    * (a count that overflowed to a non-positive value does not fit). */
  private def fits(bnx: Long, bny: Long, bnz: Long): Boolean =
    bnx > 0 && bny > 0 && bnz > 0 &&
      (try Math.multiplyExact(Math.multiplyExact(bnx, bny), bnz) <= MaxGridCells
       catch { case _: ArithmeticException => false })

  private def maxOf(a: Array[Long]): Long = {
    var m = 0L
    var i = 0
    while (i < a.length) { if (a(i) > m) m = a(i); i += 1 }
    m
  }

  /** The smallest power of two from p up whose block grid over `qf` fits
    * [[MaxGridCells]]. At tiny eb and wide extents a small p (the sweep's
    * p = 1) overflows the linear block id; a coarser grid codes the same
    * bins. There is no such p only when the bins themselves are out of
    * range, i.e. eb is below the coordinates' floating-point resolution. */
  def fittingP(qf: QFrame, p: Int): Int = {
    var k = blockBits(p)
    val (mx, my, mz) = (maxOf(qf.qx), maxOf(qf.qy), maxOf(qf.qz))
    while (!fits((mx >> k) + 1, (my >> k) + 1, (mz >> k) + 1)) {
      require(k < 30, s"no block size fits the grid of ${qf.n} particles at eb ${qf.eb}: bins up to ($mx, $my, $mz)")
      k += 1
    }
    1 << k
  }

  /** Group a quantized frame into blocks of `p` = 2^k bins per side. */
  def group(qf: QFrame, p: Int): Grouped = {
    val k    = blockBits(p)
    val mask = p - 1L
    val n    = qf.n
    if (n == 0)
      return Grouped(Array.emptyLongArray, Array.emptyLongArray,
        Array.emptyLongArray, Array.emptyLongArray, Array.emptyLongArray,
        Array.emptyIntArray, p, 1L, 1L)

    // The shift is monotone, so the largest block index is the block index
    // of the largest bin.
    val bnx = (maxOf(qf.qx) >> k) + 1
    val bny = (maxOf(qf.qy) >> k) + 1
    require(fits(bnx, bny, (maxOf(qf.qz) >> k) + 1),
      s"block grid at p = $p exceeds $MaxGridCells blocks (see fittingP)")
    val ids = new Array[Long](n)
    var i = 0
    while (i < n) { ids(i) = (qf.qx(i) >> k) + bnx * ((qf.qy(i) >> k) + bny * (qf.qz(i) >> k)); i += 1 }

    val perm = sortedIndicesBy(ids)

    // Walk particles in block order: count the runs of equal block ids,
    // then emit one (id, count) per run.
    var blocks = 0
    var prev   = -1L
    i = 0
    while (i < n) { val id = ids(perm(i)); if (id != prev) { blocks += 1; prev = id }; i += 1 }
    val blockIds = new Array[Long](blocks)
    val counts   = new Array[Long](blocks)
    val relX  = new Array[Long](n); val relY = new Array[Long](n); val relZ = new Array[Long](n)
    var b = -1
    prev = -1L
    i = 0
    while (i < n) {
      val j  = perm(i)
      val id = ids(j)
      if (id != prev) { b += 1; blockIds(b) = id; prev = id }
      counts(b) += 1
      relX(i) = qf.qx(j) & mask; relY(i) = qf.qy(j) & mask; relZ(i) = qf.qz(j) & mask
      i += 1
    }
    Grouped(blockIds, counts, relX, relY, relZ, perm, p, bnx, bny)
  }

  private final val DigitBits = 11
  private final val DigitMask = (1 << DigitBits) - 1

  /** Indices 0..n-1 sorted ascending by key, ties in index order: a stable
    * LSD radix sort of the indices. It sorts each key's offset from the
    * smallest key, read unsigned, which orders any `Long`s as the keys
    * themselves, 11 bits a digit, one pass per digit of the largest
    * offset's width. One read counts every digit, and a pass whose digit
    * is the same for every key is skipped, so equal keys cost no pass.
    * Each pass moves the offsets along with the indices, so it reads
    * sequentially.
    */
  def sortedIndicesBy(keys: Array[Long]): Array[Int] = {
    val n = keys.length
    if (n == 0) return Array.emptyIntArray
    var minKey = keys(0)
    var maxKey = keys(0)
    var i = 1
    while (i < n) { if (keys(i) > maxKey) maxKey = keys(i); if (keys(i) < minKey) minKey = keys(i); i += 1 }
    val passes = (64 - java.lang.Long.numberOfLeadingZeros(maxKey - minKey) + DigitBits - 1) / DigitBits
    val count  = new Array[Int](passes << DigitBits)
    var srcK   = new Array[Long](n)
    i = 0
    while (i < n) {
      val off = keys(i) - minKey
      srcK(i) = off
      var d = 0
      while (d < passes) { count((d << DigitBits) + ((off >>> (d * DigitBits)) & DigitMask).toInt) += 1; d += 1 }
      i += 1
    }
    var srcI = Array.range(0, n)
    var dstK: Array[Long] = null
    var dstI: Array[Int]  = null
    var d = 0
    while (d < passes) {
      val base  = d << DigitBits
      val shift = d * DigitBits
      if (count(base + ((srcK(0) >>> shift) & DigitMask).toInt) < n) {
        // Exclusive prefix sums: the first output slot of each digit.
        var sum = 0
        var b   = 0
        while (b <= DigitMask) { val c = count(base + b); count(base + b) = sum; sum += c; b += 1 }
        if (dstK == null) { dstK = new Array[Long](n); dstI = new Array[Int](n) }
        i = 0
        while (i < n) {
          val off = srcK(i)
          val at  = base + ((off >>> shift) & DigitMask).toInt
          val pos = count(at)
          count(at) = pos + 1
          dstK(pos) = off
          dstI(pos) = srcI(i)
          i += 1
        }
        val tk = srcK; srcK = dstK; dstK = tk
        val ti = srcI; srcI = dstI; dstI = ti
      }
      d += 1
    }
    srcI
  }

  /** Rebuild the frame from grouped block data (decompression side): each
    * particle's bin, `block · p + relative position`, dequantized by Eq. 5
    * against the dimension's minimum in the same pass. The grid and the
    * counts come from the input: p a power of two, the extents at least 1,
    * with at most [[MaxGridCells]] blocks in a layer, and one count per
    * block id, each at least 1 (no empty block is stored), summing to the
    * particle count.
    * They are checked before any coordinate is written. Each block id must
    * be at least 0 and each relative position in [0, p), or the point would
    * land outside its block; these are checked as each point is written. */
  def ungroup(blockIds: Array[Long], counts: Array[Long],
              relX: Array[Long], relY: Array[Long], relZ: Array[Long],
              p: Int, bnx: Long, bny: Long,
              minX: Double, minY: Double, minZ: Double, eb: Double): Frame = {
    blockBits(p)
    require(fits(bnx, bny, 1), s"block grid of $bnx x $bny blocks at p = $p: " +
      s"both extents must be >= 1, with at most $MaxGridCells blocks")
    val n = relX.length
    require(relY.length == n && relZ.length == n, s"relative positions: ${relX.length}, ${relY.length}, ${relZ.length}")
    require(counts.length == blockIds.length, s"${counts.length} block counts for ${blockIds.length} blocks")
    var total = 0L
    var k     = 0
    while (k < counts.length) {
      require(counts(k) >= 1, s"block $k holds ${counts(k)} particles")
      total += counts(k)
      require(total <= n, s"block counts pass the particle total ($n) at block $k")
      k += 1
    }
    require(total == n, s"block counts ($total) disagree with particle total ($n)")
    val x = new Array[Double](n); val y = new Array[Double](n); val z = new Array[Double](n)
    var pos = 0
    var b   = 0
    while (b < blockIds.length) {
      val id  = blockIds(b)
      require(id >= 0, s"block $b has id $id, below 0")
      val bz  = id / (bnx * bny)
      val rem = id % (bnx * bny)
      val by  = rem / bnx
      val bx  = rem % bnx
      var c = 0L
      while (c < counts(b)) {
        val rx = relX(pos); val ry = relY(pos); val rz = relZ(pos)
        if ((rx | ry | rz) < 0 || rx >= p || ry >= p || rz >= p)
          throw new IllegalArgumentException(s"particle $pos: relative position ($rx, $ry, $rz) outside [0, $p)")
        x(pos) = Quantizer.dequantize(bx * p + rx, minX, eb)
        y(pos) = Quantizer.dequantize(by * p + ry, minY, eb)
        z(pos) = Quantizer.dequantize(bz * p + rz, minZ, eb)
        pos += 1
        c += 1
      }
      b += 1
    }
    Frame(x, y, z)
  }
}
