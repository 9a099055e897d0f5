package repro.baselines

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import repro.coding.{ByteIO, IntCoder, Zigzag}
import repro.core.{Frame, Quantizer}

/** TMC13-style baseline (MPEG G-PCC): octree geometry coding. Positions are
  * quantized on the error-bound grid, Morton-ordered, and the occupied
  * octree is serialized as one occupancy byte per internal node (depth-first
  * over the sorted code ranges) plus per-leaf duplicate counts; both streams
  * go through Zstd. Error-bounded (bin centres), order lost.
  */
object Tmc13Like extends FrameWiseCodec {
  override val name = "TMC13"

  override def compressFrame(f: Frame, eb: Double): (Array[Byte], Array[Int]) = {
    val qf = Quantizer.quantizeFrame(f, eb)
    var maxQ = 0L
    var i = 0
    while (i < f.n) {
      maxQ = math.max(maxQ, math.max(qf.qx(i), math.max(qf.qy(i), qf.qz(i))))
      i += 1
    }
    val depth = math.max(1, repro.coding.Zigzag.bitWidth(maxQ))
    require(depth <= Morton.MaxBits,
      s"TMC13 grid needs $depth bits/dim (> ${Morton.MaxBits}); raise the error bound")

    val (perm, sorted) = Morton.sort(f.n)(i => Morton.encode(qf.qx(i), qf.qy(i), qf.qz(i)))

    val occ  = new ByteArrayOutputStream(f.n / 2 + 16)
    val dups = scala.collection.mutable.ArrayBuffer.empty[Long]

    def emit(start: Int, end: Int, level: Int): Unit = {
      if (level == 0) { dups += (end - start).toLong; return }
      val shift = 3 * (level - 1)
      // Children are contiguous runs of the sorted codes; find boundaries.
      var occByte = 0
      var s = start
      val bounds = new Array[Int](9)
      bounds(0) = start
      var child = 0
      while (child < 8) {
        var e = s
        while (e < end && ((sorted(e) >> shift) & 7) == child) e += 1
        if (e > s) occByte |= (1 << child)
        bounds(child + 1) = e
        s = e
        child += 1
      }
      occ.write(occByte)
      child = 0
      while (child < 8) {
        if (bounds(child + 1) > bounds(child)) emit(bounds(child), bounds(child + 1), level - 1)
        child += 1
      }
    }
    if (f.n > 0) emit(0, f.n, depth)

    val out = new ByteArrayOutputStream(f.n + 64)
    Zigzag.writeVarLong(out, f.n.toLong)
    ByteIO.writeDouble(out, eb)
    Quantizer.writeMins(out, qf.minX, qf.minY, qf.minZ)
    out.write(depth)
    ByteIO.writeBody(out, occ.toByteArray, IntCoder.encode(dups.toArray, delta = false))
    (out.toByteArray, perm)
  }

  override def decompressFrame(bytes: Array[Byte]): Frame = {
    val in = new ByteArrayInputStream(bytes)
    val n  = ByteIO.readCount(in, Int.MaxValue, "TMC13 particle count")
    val eb = Quantizer.requireBound(ByteIO.readDouble(in), "TMC13 error bound")
    val (mx, my, mz) = Quantizer.readMins(in, "TMC13")
    val depth = in.read()
    require(depth >= 1 && depth <= Morton.MaxBits, s"TMC13: bad octree depth $depth")
    val Array(occ, dupBytes) = ByteIO.readBody(in, 2)
    // No leaf is empty, so there are at most n of them.
    val dups = IntCoder.decode(new ByteArrayInputStream(dupBytes), n)
    // Every point sits in one leaf, so the leaf counts bound the header's count.
    var total = 0L
    dups.foreach { d => require(d >= 1 && d <= n, s"TMC13: leaf count $d"); total += d }
    require(total == n, s"TMC13: leaves hold $total points, header says $n")

    val x = new Array[Double](n); val y = new Array[Double](n); val z = new Array[Double](n)
    var occPos  = 0
    var dupPos  = 0
    var outPos  = 0

    def walk(prefix: Long, level: Int): Unit = {
      if (level == 0) {
        val (qx, qy, qz) = Morton.decode(prefix)
        val px = Quantizer.dequantize(qx, mx, eb)
        val py = Quantizer.dequantize(qy, my, eb)
        val pz = Quantizer.dequantize(qz, mz, eb)
        require(dupPos < dups.length, s"TMC13: occupancy describes more than ${dups.length} leaves")
        var c = dups(dupPos); dupPos += 1
        while (c > 0) { x(outPos) = px; y(outPos) = py; z(outPos) = pz; outPos += 1; c -= 1 }
        return
      }
      require(occPos < occ.length, s"TMC13: octree needs more than ${occ.length} occupancy bytes")
      val occByte = occ(occPos) & 0xff; occPos += 1
      var child = 0
      while (child < 8) {
        if ((occByte & (1 << child)) != 0) walk((prefix << 3) | child, level - 1)
        child += 1
      }
    }
    if (n > 0) walk(0L, depth)
    require(occPos == occ.length, s"TMC13: octree read $occPos of ${occ.length} occupancy bytes")
    require(outPos == n, s"octree decoded $outPos of $n points")
    Frame(x, y, z)
  }
}
