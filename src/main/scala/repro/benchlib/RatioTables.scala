package repro.benchlib

import repro.metrics.Metrics

/** Figures 10 (CD ranking) and 11 (multi-frame compression ratios). */
object RatioTables {

  final case class Cell(dataset: String, batch: Int, eb: Double, crByCodec: Map[String, Double])
  final case class Rank(codec: String, meanRank: Double)
  /** Mean CR over the ebs at batch 16 of LCP and of the best other codec. */
  final case class Improvement(dataset: String, lcpCr: Double, second: String, secondCr: Double)

  /** Fig 11's keys: every codec on every (multi-frame dataset, batch, eb),
    * in table order. */
  def keys: Seq[CellGrid.Key] = for {
    ds <- BenchData.MultiNames; batch <- Seq(8, 16); eb <- BenchData.PaperEbs; codec <- BenchData.codecs
  } yield CellGrid.Key(ds, codec.name, eb, batch)

  /** CR of every codec on every setting, read from the cell grid. */
  def cells(): Seq[Cell] = keys.grouped(BenchData.codecs.size).toSeq.map { ks =>
    Cell(ks.head.dataset, ks.head.batch, ks.head.eb, ks.map(k =>
      k.codec -> Metrics.compressionRatio(BenchData.multi(k.dataset), CellGrid.multi(k).bytes)).toMap)
  }

  /** Fig. 11 as a table: CR per codec per setting. */
  def ratios(cs: Seq[Cell]): String = {
    val names = BenchData.codecs.map(_.name)
    val rows = cs.map { c =>
      Seq(c.dataset, c.batch.toString, TableFmt.sci(c.eb)) ++
        names.map(n => TableFmt.f2(c.crByCodec(n)))
    }
    TableFmt.render("Fig 11: compression ratios, multi-frame datasets (higher is better)",
      Seq("Dataset", "Batch", "eb") ++ names, rows)
  }

  /** Fig. 10 analog: mean rank of each codec over all cells (1 = best),
    * best first. */
  def ranking(cs: Seq[Cell]): Seq[Rank] = {
    val names = BenchData.codecs.map(_.name)
    val rankSums = scala.collection.mutable.Map(names.map(_ -> 0.0): _*)
    cs.foreach { c =>
      val ordered = names.sortBy(n => -c.crByCodec(n))
      ordered.zipWithIndex.foreach { case (n, i) => rankSums(n) += i + 1 }
    }
    names.sortBy(rankSums).map(n => Rank(n, rankSums(n) / cs.size))
  }

  def rankingTable(rs: Seq[Rank]): String =
    TableFmt.render("Fig 10 (CD-diagram analog): mean CR rank over all settings (1 = best)",
      Seq("Compressor", "Mean rank"), rs.map(r => Seq(r.codec, TableFmt.f2(r.meanRank))))

  /** The §8.2.3 quoted numbers: LCP's CR against the second best at batch
    * 16, per dataset (paper: Helium +78%, Copper +26%, LJ +12%, YIIP +104%). */
  def improvements(cs: Seq[Cell]): Seq[Improvement] =
    BenchData.MultiNames.map { ds =>
      val mine = cs.filter(c => c.dataset == ds && c.batch == 16)
      // Aggregate over ebs by mean CR, as a table-level summary.
      val mean = BenchData.codecs.map(_.name)
        .map(n => n -> mine.map(_.crByCodec(n)).sum / mine.size).toMap
      val (secondName, second) = (mean - "LCP").maxBy(_._2)
      Improvement(ds, mean("LCP"), secondName, second)
    }

  def improvementTable(is: Seq[Improvement]): String =
    TableFmt.render("Fig 11 summary: LCP vs second best at batch 16 (mean over ebs)",
      Seq("Dataset", "LCP CR", "Second best", "Improvement"),
      is.map(i => Seq(i.dataset, TableFmt.f2(i.lcpCr), s"${i.second} (${TableFmt.f2(i.secondCr)})",
        f"${(i.lcpCr / i.secondCr - 1) * 100}%+.0f%%")))
}
