package repro.benchlib

import repro.baselines.LcpCodec
import repro.core.{BlockSizeOpt, Fork, Lcp, LcpS}
import repro.metrics.Metrics

/** Figures 5–7: the dynamic-optimization studies of §7.4. */
object OptTables {

  final case class BlockSize(dataset: String, eb: Double, p: Int, bytes: Long)

  /** The optimizer's chosen p, its LCP-S size, and the smallest size over
    * every candidate p. */
  final case class Optimizer(dataset: String, eb: Double, chosenP: Int, chosenBytes: Long, bestBytes: Long) {
    /** CR at the chosen p as a share of the best exhaustive CR. */
    def share: Double = bestBytes.toDouble / chosenBytes
  }

  final case class Scaling(dataset: String, factor: Double, bytes: Long) {
    def cr: Double = Metrics.compressionRatio(BenchData.multi(dataset), bytes)
  }

  /** Fig. 5's error bound; Fig. 7's error bound and batch size. */
  private val SweepEb: Double           = 1e-2
  private val ScaleEb: Double           = 1e-1
  private val ScaleBatch: Int           = 2
  private val ScaleFactors: Seq[Double] = Seq(1.0, 2.0, 5.0, 10.0, 20.0)

  /** The LCP-S size table's keys: (dataset, eb, p). */
  def sizeKeys: Seq[(String, Double, Int)] =
    for { ds <- BenchData.SingleNames; eb <- BenchData.PaperEbs; p <- BlockSizeOpt.Candidates } yield (ds, eb, p)

  /** LCP-S bytes of every single-frame set, paper eb and candidate p: Figs 5 and 6 read it. */
  lazy val sizes: Map[(String, Double, Int), Long] = sizeKeys.zip(Fork.map(sizeKeys) {
    case (ds, eb, p) => LcpS.compress(BenchData.single(ds), eb, p).bytes.length.toLong
  }).toMap

  /** Fig. 5: LCP-S compressed size vs block size p (two contrasting sets). */
  def blockSizeSweep(): Seq[BlockSize] =
    for { ds <- Seq("Copper", "3DEP"); p <- BlockSizeOpt.Candidates } yield BlockSize(ds, SweepEb, p, sizes((ds, SweepEb, p)))

  def blockSizeTable(bs: Seq[BlockSize]): String = {
    val rows = bs.map { b =>
      Seq(b.dataset, b.p.toString, TableFmt.bytes(b.bytes),
        TableFmt.f3(Metrics.bitRate(Seq(BenchData.single(b.dataset)), b.bytes)))
    }
    TableFmt.render(s"Fig 5: LCP-S size vs block size p (eb=$SweepEb)",
      Seq("Dataset", "p", "Compressed size", "Bit rate"), rows)
  }

  /** Fig. 6: CR of the sampled optimizer relative to exhaustive search. */
  def optimizerEffectiveness(): Seq[Optimizer] = {
    val settings = for { ds <- BenchData.SingleNames; eb <- BenchData.PaperEbs } yield (ds, eb)
    val chosen   = Fork.map(settings) { case (ds, eb) => BlockSizeOpt.bestBlockSize(BenchData.single(ds), eb)._1 }
    settings.zip(chosen).map { case ((ds, eb), p) =>
      Optimizer(ds, eb, p, sizes((ds, eb, p)), BlockSizeOpt.Candidates.map(q => sizes((ds, eb, q))).min)
    }
  }

  def optimizerTable(os: Seq[Optimizer]): String =
    TableFmt.render("Fig 6: optimized block size CR as % of best exhaustive CR (target >= 85%)",
      Seq("Dataset", "eb", "Chosen p", "CR / best CR"),
      os.map(o => Seq(o.dataset, TableFmt.sci(o.eb), o.chosenP.toString, f"${o.share * 100}%.1f%%")))

  /** Fig. 7: overall CR vs anchor error-bound scale factor, on the
    * diffusive datasets at a coarse bound. There motion ≪ eb, so anchor
    * quantization error dominates the temporal residuals of anchor-dependent
    * batch heads: the case §7.4.2 targets, and the paper likewise reports
    * gains "when the bit rate is small". (Vibration-around-sites Copper
    * compresses its heads almost for free either way, so scaling cannot pay
    * there — see EXPERIMENTS.) */
  def ebScaleSweep(): Seq[Scaling] =
    Fork.map(for { ds <- Seq("Helium", "LJ"); factor <- ScaleFactors } yield (ds, factor)) {
      case (ds, factor) =>
        val codec = new LcpCodec(s"LCP(x$factor)", None, Lcp.Forced(factor))
        Scaling(ds, factor, codec.compress(BenchData.multi(ds), ScaleEb, ScaleBatch).payload.length.toLong)
    }

  def ebScaleTable(ss: Seq[Scaling]): String =
    TableFmt.render(s"Fig 7: CR vs anchor eb scale factor (eb=$ScaleEb, batch=$ScaleBatch; paper picks 5)",
      Seq("Dataset", "Scale factor", "CR"), ss.map(s => Seq(s.dataset, s.factor.toString, TableFmt.f2(s.cr))))
}
