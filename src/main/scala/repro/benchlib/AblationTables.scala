package repro.benchlib

import repro.baselines.LcpCodec
import repro.metrics.Metrics

/** Figure 8 (ablation) and Figure 9 (error distribution) as tables. */
object AblationTables {

  /** Payload bytes of each ablation stage, in [[variants]] order. */
  final case class Ablation(dataset: String, eb: Double, bytes: Seq[Long])

  /** Largest |error| and the count of errors in each tenth of eb. */
  final case class Errors(eb: Double, maxErr: Double, buckets: Seq[Long])

  /** The four ablation lines of Fig. 8, in paper order. */
  def variants: Seq[(String, LcpCodec)] = Seq(
    "LCP-S"           -> LcpCodec.lcpSOnly(64),
    "LCP-S+BLK"       -> LcpCodec.lcpSBlk,
    "LCP-S+BLK+T"     -> LcpCodec.lcpNoEbScale,
    "LCP-S+BLK+T+EB"  -> LcpCodec.full)

  private val Batch: Int = 16

  /** Fig 8's keys: every stage on every multi-frame dataset and paper eb. */
  def keys: Seq[CellGrid.Key] =
    for { ds <- BenchData.MultiNames; eb <- BenchData.PaperEbs; (_, codec) <- variants }
      yield CellGrid.Key(ds, codec.name, eb, Batch)

  /** Payload size of each ablation stage, read from the cell grid. */
  def ablation(): Seq[Ablation] =
    keys.grouped(variants.size).toSeq.map(ks => Ablation(ks.head.dataset, ks.head.eb, ks.map(CellGrid.multi(_).bytes)))

  def ablationTable(as: Seq[Ablation]): String = {
    val rows = as.map { a =>
      Seq(a.dataset, TableFmt.sci(a.eb)) ++
        a.bytes.map(b => TableFmt.f3(Metrics.bitRate(BenchData.multi(a.dataset), b)))
    }
    TableFmt.render(s"Fig 8 (ablation): bit rate per LCP stage (batch=$Batch; lower is better)",
      Seq("Dataset", "eb") ++ variants.map(_._1), rows)
  }

  /** Fig. 9: error distribution of LCP on Helium at eb = 0.1. */
  def errorDistribution(): Errors = {
    val eb     = 0.1
    val frames = BenchData.multi("Helium")
    val codec  = LcpCodec.full
    val c      = codec.compress(frames, eb, Batch)
    val dec    = codec.decompress(c.payload)
    val buckets = new Array[Long](10)
    var maxErr  = 0.0
    for (t <- frames.indices; i <- 0 until dec(t).n) {
      val o = frames(t); val d = dec(t); val perm = c.perms(t)
      val j = if (perm == null) i else perm(i)
      for (e <- Seq(o.x(j) - d.x(i), o.y(j) - d.y(i), o.z(j) - d.z(i))) {
        val a = math.abs(e)
        maxErr = math.max(maxErr, a)
        buckets(math.min(9, (a / eb * 10).toInt)) += 1
      }
    }
    Errors(eb, maxErr, buckets.toSeq)
  }

  def errorTable(e: Errors): String = {
    val total = e.buckets.sum.toDouble
    val rows = e.buckets.zipWithIndex.map { case (cnt, k) =>
      Seq(f"[${k / 10.0}%.1f, ${(k + 1) / 10.0}%.1f)·eb", cnt.toString, f"${cnt / total * 100}%.2f%%")
    }
    val bound = if (e.maxErr <= e.eb) "<=" else ">"
    TableFmt.render(f"Fig 9: LCP error distribution on Helium (eb=${e.eb}; max |err| = ${e.maxErr}%.6f $bound eb)",
      Seq("Error bucket", "Count", "Share"), rows)
  }
}
