package repro.benchlib

import repro.baselines.ParticleCodec
import repro.core.{Fork, Frame}
import repro.metrics.Metrics

/** The (dataset, codec, eb, batch) cells of §8, each compressed once. One
  * figure's cell is often another's (Fig 13 re-reads Fig 11's batch-16
  * cells, Fig 8's last line is Fig 11's LCP), so [[multi]] holds the
  * distinct keys of Figs 8, 10–11 and 13 and each figure selects from it. */
object CellGrid {

  final case class Key(dataset: String, codec: String, eb: Double, batch: Int)

  /** Payload bytes of a key, and its PSNR when the cell was decoded. */
  final case class Cell(bytes: Long, psnr: Option[Double])

  /** The multi-frame grid's keys, in first-use order. */
  def multiKeys: Seq[Key] = (RatioTables.keys ++ RateDistortionTables.multiKeys ++ AblationTables.keys).distinct

  /** The multi-frame grid; only Fig 13's keys are decoded. */
  lazy val multi: Map[Key, Cell] = {
    val decoded = RateDistortionTables.multiKeys.toSet
    multiKeys.zip(Fork.map(multiKeys)(k => cell(k, BenchData.multi(k.dataset), decoded(k)))).toMap
  }

  /** Compress `frames` as `k` says, and decode them for PSNR if `decode`. */
  def cell(k: Key, frames: IndexedSeq[Frame], decode: Boolean): Cell = {
    val codec = codecs(k.codec)
    val c     = codec.compress(frames, k.eb, k.batch)
    Cell(c.payload.length.toLong, Option.when(decode)(Metrics.psnr(frames, codec.decompress(c.payload), c.perms)))
  }

  /** The roster and the ablation stages by name (the last stage is "LCP"). */
  private val codecs: Map[String, ParticleCodec] =
    (BenchData.codecs ++ AblationTables.variants.map(_._2)).map(c => c.name -> c).toMap
}
