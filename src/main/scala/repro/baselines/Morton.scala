package repro.baselines

import repro.core.BlockIndex

/** 3-D Morton (Z-order) codes, up to 21 bits per dimension (63-bit code).
  * Shared by the point-cloud baselines (Draco-style sequential coding,
  * TMC13-style octree traversal order).
  */
object Morton {
  val MaxBits = 21

  /** Spread the low 21 bits of `v` to every third bit position. */
  private def spread(v: Long): Long = {
    var x = v & 0x1fffffL
    x = (x | (x << 32)) & 0x1f00000000ffffL
    x = (x | (x << 16)) & 0x1f0000ff0000ffL
    x = (x | (x << 8)) & 0x100f00f00f00f00fL
    x = (x | (x << 4)) & 0x10c30c30c30c30c3L
    x = (x | (x << 2)) & 0x1249249249249249L
    x
  }

  private def compact(v: Long): Long = {
    var x = v & 0x1249249249249249L
    x = (x | (x >> 2)) & 0x10c30c30c30c30c3L
    x = (x | (x >> 4)) & 0x100f00f00f00f00fL
    x = (x | (x >> 8)) & 0x1f0000ff0000ffL
    x = (x | (x >> 16)) & 0x1f00000000ffffL
    x = (x | (x >> 32)) & 0x1fffffL
    x
  }

  /** Interleave (x, y, z) — each must fit in [[MaxBits]] bits. */
  def encode(x: Long, y: Long, z: Long): Long = {
    require(x >= 0 && y >= 0 && z >= 0 && x < (1L << MaxBits) && y < (1L << MaxBits) && z < (1L << MaxBits),
      s"coordinate out of Morton range: ($x, $y, $z)")
    spread(x) | (spread(y) << 1) | (spread(z) << 2)
  }

  /** The codes `code(0)`, …, `code(n - 1)` of `n` points, stably sorted:
    * the perm (the point at each sorted slot) and the sorted codes. */
  def sort(n: Int)(code: Int => Long): (Array[Int], Array[Long]) = {
    val codes = Array.tabulate(n)(code)
    val perm  = BlockIndex.sortedIndicesBy(codes)
    (perm, perm.map(codes(_)))
  }

  /** Inverse of [[encode]]. */
  def decode(m: Long): (Long, Long, Long) =
    (compact(m), compact(m >> 1), compact(m >> 2))
}
