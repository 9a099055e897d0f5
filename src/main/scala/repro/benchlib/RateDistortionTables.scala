package repro.benchlib

import repro.core.Fork
import repro.metrics.Metrics

/** Figures 12 (single-frame) and 13 (multi-frame) rate-distortion tables. */
object RateDistortionTables {

  final case class Point(dataset: String, codec: String, eb: Double, bytes: Long, psnr: Double)

  val SweepEbs: Seq[Double] = Seq(1e-1, 2e-2, 1e-2, 2e-3)

  /** Every codec at every sweep eb on each dataset, in (dataset, codec, eb) order. */
  private def keys(datasets: Seq[String], batch: Int): Seq[CellGrid.Key] =
    for { ds <- datasets; codec <- BenchData.codecs; eb <- SweepEbs } yield CellGrid.Key(ds, codec.name, eb, batch)

  private def point(k: CellGrid.Key, c: CellGrid.Cell): Point = Point(k.dataset, k.codec, k.eb, c.bytes, c.psnr.get)

  /** Fig 13's keys: the multi-frame sets at batch 16. */
  def multiKeys: Seq[CellGrid.Key] = keys(BenchData.MultiNames, 16)

  /** Fig. 12: single-frame rate-distortion on all eight datasets. */
  def singleFrame(): Seq[Point] = Fork.map(keys(BenchData.SingleNames, 1)) { k =>
    point(k, CellGrid.cell(k, IndexedSeq(BenchData.single(k.dataset)), decode = true))
  }

  /** Fig. 13: multi-frame rate-distortion at batch 16, read from the cell grid. */
  def multiFrame(): Seq[Point] = multiKeys.map(k => point(k, CellGrid.multi(k)))

  private def singleBitRate(p: Point): Double = Metrics.bitRate(Seq(BenchData.single(p.dataset)), p.bytes)

  private def table(title: String, ps: Seq[Point], bitRate: Point => Double): String =
    TableFmt.render(title, Seq("Dataset", "Compressor", "eb", "Bit rate", "PSNR dB"),
      ps.map(p => Seq(p.dataset, p.codec, TableFmt.sci(p.eb), TableFmt.f3(bitRate(p)), TableFmt.f1(p.psnr))))

  def singleFrameTable(ps: Seq[Point]): String =
    table("Fig 12: single-frame rate-distortion (lower bit rate + higher PSNR = better)", ps, singleBitRate)

  def multiFrameTable(ps: Seq[Point]): String =
    table("Fig 13: multi-frame rate-distortion (batch = 16)", ps,
      p => Metrics.bitRate(BenchData.multi(p.dataset), p.bytes))

  /** The §8.2.4 comparison from the single-frame points: PSNR at the *same*
    * bit rate (a vertical slice of the rate-distortion plot; paper quotes LCP
    * up to +34 dB single / +35 dB multi over the second best). LCP is
    * evaluated at the middle sweep eb; each baseline's PSNR at LCP's bit rate
    * is linearly interpolated on its own sweep curve (clamped to its
    * endpoints, which only favours the baseline). */
  def psnrAdvantage(single: Seq[Point]): String = {
    val rows = BenchData.SingleNames.map { ds =>
      val mine = single.filter(_.dataset == ds)
      val lcp  = mine.find(p => p.codec == "LCP" && p.eb == SweepEbs(2)).get
      val best = BenchData.codecs.drop(1).map { codec =>
        val curve = mine.filter(_.codec == codec.name).map(p => (singleBitRate(p), p.psnr)).sortBy(_._1)
        codec.name -> psnrAt(curve, singleBitRate(lcp))
      }.maxBy(_._2)
      Seq(ds, TableFmt.f3(singleBitRate(lcp)), TableFmt.f1(lcp.psnr), best._1, TableFmt.f1(best._2),
        f"${lcp.psnr - best._2}%+.1f dB")
    }
    TableFmt.render("Fig 12 summary: PSNR at LCP's bit rate (baselines interpolated on their R-D curves)",
      Seq("Dataset", "Bit rate", "LCP PSNR", "Best baseline", "Baseline PSNR", "LCP advantage"), rows)
  }

  /** Linear interpolation of PSNR at bit rate `br` on a sorted R-D curve;
    * clamps to the end points outside the measured range. */
  private def psnrAt(curve: Seq[(Double, Double)], br: Double): Double = {
    val finite = curve.filter(p => java.lang.Double.isFinite(p._2))
    if (finite.isEmpty) return 0.0
    if (br <= finite.head._1) return finite.head._2
    if (br >= finite.last._1) return finite.last._2
    val i = finite.lastIndexWhere(_._1 <= br)
    val (b0, p0) = finite(i); val (b1, p1) = finite(i + 1)
    if (b1 == b0) p0 else p0 + (p1 - p0) * (br - b0) / (b1 - b0)
  }
}
