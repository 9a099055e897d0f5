package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import repro.coding.{ByteIO, IntCoder, Zigzag}
import repro.core.Quantizer.QFrame

/** LCP-S — the error-bound-aware block-wise spatial compressor (§6).
  *
  * Pipeline: Eq. 5 quantization → Eq. 6 spatial blocking → per-array coding
  * chain (delta → {Huffman | fixed-length} → Zstd) over the three stored
  * arrays: block ids, per-block particle counts, and relative positions.
  *
  * The frame is reconstructed as the same multiset of points in block order;
  * [[SResult.perm]] carries the input→stored correspondence for the codec's
  * own temporal chaining (DESIGN.md §2, particle-order semantics).
  */
object LcpS {

  /** Compression output: the stored bytes plus codec-internal state used by
    * the multi-frame compressor (never serialized).
    *
    * @param bytes compressed frame (self-contained)
    * @param perm  perm(i) = original index of the particle stored at slot i
    * @param recon reconstruction of the frame in stored (block) order
    */
  final case class SResult(bytes: Array[Byte], perm: Array[Int], recon: Frame)

  /** Compress `f` at absolute error bound `eb` with block parameter `p`, a
    * power of two (raised to [[BlockIndex.fittingP]] when the grid would
    * overflow). */
  def compress(f: Frame, eb: Double, p: Int): SResult = {
    val qf         = Quantizer.quantizeFrame(f, eb)
    val (bytes, g) = encode(qf, p)
    // The decoder's own rebuild, so LCP-T predicts from exactly the frame
    // a reader decompresses.
    SResult(bytes, g.perm, BlockIndex.ungroup(g.blockIds, g.counts, g.relX, g.relY, g.relZ,
      g.p, g.bnx, g.bny, qf.minX, qf.minY, qf.minZ, qf.eb))
  }

  /** The frame bytes of [[compress]] for an already quantized frame, and
    * its block grouping, without the reconstruction: the §7.4.1 sweep
    * scores every candidate p through this and needs only the size. */
  private[core] def encode(qf: QFrame, p: Int): (Array[Byte], BlockIndex.Grouped) = {
    val (grouped, plans) = plan(qf, p)

    val out = new ByteArrayOutputStream(qf.n + 96)
    Zigzag.writeVarLong(out, qf.n.toLong)
    ByteIO.writeDouble(out, qf.eb)
    Zigzag.writeVarLong(out, grouped.p.toLong)
    Quantizer.writeMins(out, qf.minX, qf.minY, qf.minZ)
    Zigzag.writeVarLong(out, grouped.bnx)
    Zigzag.writeVarLong(out, grouped.bny)
    // The frame body runs Zstd once over the five sections.
    ByteIO.writeBody(out, plans.map(_.pack()): _*)
    (out.toByteArray, grouped)
  }

  /** `qf` grouped at [[BlockIndex.fittingP]], and the plans of its five
    * arrays, which [[encode]] packs and [[sectionCosts]] reads. */
  private def plan(qf: QFrame, p: Int): (BlockIndex.Grouped, Seq[IntCoder.Plan]) = {
    val g = BlockIndex.group(qf, BlockIndex.fittingP(qf, p))
    (g, Seq(g.blockIds, g.counts, g.relX, g.relY, g.relZ).map(IntCoder.plan(_)))
  }

  /** Decompress a frame written by [[compress]] (returned in block order).
    * The five sections decode concurrently ([[Fork]]). */
  def decompress(bytes: Array[Byte]): Frame = {
    val in  = new ByteArrayInputStream(bytes)
    val n   = ByteIO.readCount(in, Int.MaxValue, "LCP-S particle count")
    val eb  = Quantizer.requireBound(ByteIO.readDouble(in), "LCP-S error bound")
    val p   = ByteIO.readCount(in, Int.MaxValue, "LCP-S block size")
    val (mx, my, mz) = Quantizer.readMins(in, "LCP-S")
    val bnx = Zigzag.readVarLong(in)
    val bny = Zigzag.readVarLong(in)
    // Every block holds at least one particle, so no array has more than n
    // values.
    val Seq(blockIds, counts, relX, relY, relZ) =
      Fork.map(ByteIO.readBody(in, 5).toSeq)(s => IntCoder.decode(new ByteArrayInputStream(s), n))
    require(relX.length == n, s"decoded ${relX.length} particles, expected $n")
    BlockIndex.ungroup(blockIds, counts, relX, relY, relZ, p, bnx, bny, mx, my, mz, eb)
  }

  /** The fixed-length and Huffman sizes of the plans [[compress]] packs for
    * its five arrays (block ids, counts, relX, relY, relZ), pre-Zstd as in
    * the paper's Table 3; the relative positions sum their three arrays. */
  final case class SectionCosts(fixed: Seq[Long], huffman: Seq[Option[Long]]) {
    def blockIdFixed: Long           = fixed(0)
    def blockIdHuffman: Option[Long] = huffman(0)
    def relPosFixed: Long            = fixed.drop(2).sum
    def relPosHuffman: Option[Long]  = huffman.drop(2).reduce((a, b) => for (x <- a; y <- b) yield x + y)
  }

  def sectionCosts(f: Frame, eb: Double, p: Int): SectionCosts = {
    val plans = plan(Quantizer.quantizeFrame(f, eb), p)._2
    SectionCosts(plans.map(_.fixedSize), plans.map(_.huffmanSize))
  }
}
