package repro.benchlib

import repro.core.{BlockIndex, LcpS, Quantizer}
import repro.data.Particles
import repro.metrics.Metrics

/** Tables 1–3 of the paper. */
object DataTables {

  final case class Dataset(name: String, domain: String, paperSize: String, frames: Int, n: Int)

  /** Entropy (bits) and lag-1 autocorrelation of the quantized data with no
    * block, BS=64 and BS=8. */
  final case class Blocking(dataset: String, entNo: Double, ent64: Double, ent8: Double,
                            acNo: Double, ac64: Double, ac8: Double)

  final case class Coding(dataset: String, eb: Double, costs: LcpS.SectionCosts)

  /** Table 2's error bound and Table 3's block size. */
  private val BlockingEb: Double = 1e-3
  private val CodingP: Int       = 64

  /** Table 1: dataset roster (paper sizes alongside our bench-scale sizes). */
  def datasets(): Seq[Dataset] = {
    val paperSizes = Map(
      "BUN-ZIPPER" -> "3 MB", "Copper" -> "200 MB", "Helium" -> "4 GB", "LJ" -> "4 GB",
      "YIIP" -> "4 GB", "HACC" -> "4 TB", "WarpX" -> "8 TB", "3DEP" -> "> 200 TB")
    Particles.all.map { s =>
      Dataset(s.name, s.domain, paperSizes(s.name),
        if (s.multiFrame) BenchData.MultiFrames else 1,
        if (s.multiFrame) BenchData.MultiN else BenchData.SingleN)
    }
  }

  def datasetTable(ds: Seq[Dataset]): String = {
    val rows = ds.map { d =>
      val mb = 3L * 4 * d.n * d.frames / 1e6
      Seq(d.name, d.domain, d.paperSize, s"${d.frames} x ${d.n}", f"$mb%.1f MB")
    }
    TableFmt.render("Table 1: particle datasets (paper size vs bench-scale synthetic)",
      Seq("Dataset", "Domain", "Paper size", "Bench frames x particles", "Bench size (FP32)"), rows)
  }

  /** Table 2: effect of blocking on entropy and lag-1 autocorrelation of
    * quantized data (Copper, YIIP, BUN-ZIPPER; no block vs BS=64 vs BS=8).
    */
  def blocking(): Seq[Blocking] =
    Seq("Copper", "YIIP", "BUN-ZIPPER").map { name =>
      val qf   = Quantizer.quantizeFrame(BenchData.single(name), BlockingEb)
      val dims = Seq(qf.qx, qf.qy, qf.qz)
      // Entropy: raw quantization bins (no block) vs block-relative values.
      // Autocorrelation: bins in storage order vs in spatial block order.
      def at(p: Int) = {
        val g = BlockIndex.group(qf, p)
        (Seq(g.relX, g.relY, g.relZ).map(Metrics.shannonEntropy).sum / 3,
          dims.map(a => Metrics.lag1Autocorrelation(g.perm.map(i => a(i).toDouble))).sum / 3)
      }
      val (ent64, ac64) = at(64)
      val (ent8, ac8)   = at(8)
      Blocking(name, dims.map(Metrics.shannonEntropy).sum / 3, ent64, ent8,
        dims.map(a => Metrics.lag1Autocorrelation(a.map(_.toDouble))).sum / 3, ac64, ac8)
    }

  def blockingTable(bs: Seq[Blocking]): String = {
    val rows = bs.map { b =>
      Seq(b.dataset, TableFmt.f3(b.entNo), TableFmt.f3(b.ent64), TableFmt.f3(b.ent8),
        TableFmt.f4(b.acNo), TableFmt.f4(b.ac64), TableFmt.f4(b.ac8))
    }
    TableFmt.render(s"Table 2: blocking vs entropy/autocorrelation (eb=$BlockingEb)",
      Seq("Dataset", "Entropy no-block", "Entropy BS=64", "Entropy BS=8",
        "Autocorr no-block", "Autocorr BS=64", "Autocorr BS=8"), rows)
  }

  /** Table 3: Huffman vs fixed-length coded sizes of the block-id and
    * relative-position arrays (Helium, Copper, 3DEP at eb 1e-1..1e-3). */
  def coding(): Seq[Coding] =
    for {
      name <- Seq("Helium", "Copper", "3DEP")
      eb   <- BenchData.PaperEbs
    } yield Coding(name, eb, LcpS.sectionCosts(BenchData.single(name), eb, CodingP))

  def codingTable(cs: Seq[Coding]): String = {
    val rows = cs.map { c =>
      def cell(huff: Option[Long], fixed: Long) = Seq(
        huff.map(TableFmt.bytes).getOrElse("n/a"),
        TableFmt.bytes(fixed),
        if (huff.exists(_ < fixed)) "huffman" else "fixed")
      Seq(c.dataset, TableFmt.sci(c.eb)) ++ cell(c.costs.blockIdHuffman, c.costs.blockIdFixed) ++
        cell(c.costs.relPosHuffman, c.costs.relPosFixed)
    }
    TableFmt.render(s"Table 3: Huffman vs fixed-length per section (block size p=$CodingP)",
      Seq("Dataset", "eb", "BlockId Huffman", "BlockId fixed", "BlockId winner",
        "RelPos Huffman", "RelPos fixed", "RelPos winner"), rows)
  }
}
