package repro.core

import java.io.ByteArrayInputStream
import repro.coding.{ByteIO, Zigzag}

/** LCP — the dynamic multi-frame hybrid compressor (§7, Algorithm 1).
  *
  * Frames are compressed in independent batches of `batchSize` frames for
  * partial retrieval (§2.1.3). Within a batch, each frame is compressed by
  * LCP-S or LCP-T, chosen per frame by LCP-FSM; a first-in-batch frame may
  * be temporally compressed against the nearest earlier *spatial anchor
  * frame*, which is stored in a separate anchor array, so no inter-batch
  * dependency is introduced (§7.3).
  */
object Lcp {

  /** How the §7.4.2 anchor error-bound scaling is applied. */
  sealed trait EbScaleMode
  /** Gate on the temporal-correlation probe; use factor 5 when it passes. */
  case object Auto extends EbScaleMode
  /** Never scale. */
  case object Off extends EbScaleMode
  /** Always scale by the given factor (bench support for Fig. 7). */
  final case class Forced(factor: Double) extends EbScaleMode

  /** `f`, an anchor error-bound scale factor: finite and >= 1, since §7.4.2
    * only tightens anchors and a factor below 1 would loosen them past eb. */
  private def requireScale(f: Double): Double = {
    require(f >= 1 && f < Double.PositiveInfinity, s"anchor eb scale factor must be finite and >= 1, got $f")
    f
  }

  /** Compression parameters. `blockSizeP = None` triggers the §7.4.1
    * dynamic block-size optimization on the first frame; a given p must be
    * a power of two. */
  final case class LcpConfig(eb: Double,
                             batchSize: Int = 16,
                             blockSizeP: Option[Int] = None,
                             ebScaleMode: EbScaleMode = Auto,
                             disableTemporal: Boolean = false) {
    Quantizer.requireBound(eb, "error bound")
    require(batchSize >= 1, "batch size must be >= 1")
    blockSizeP.foreach(BlockIndex.blockBits)
    ebScaleMode match {
      case Forced(f) => requireScale(f)
      case _ =>
    }
  }

  /** One frame's row of the frame table. `slot` indexes the anchor array
    * when `inAnchor`, otherwise the payload list of the frame's batch.
    * `anchorRef` is the anchor a first-in-batch temporal frame depends on
    * (-1 otherwise). */
  final case class FrameEntry(temporal: Boolean, inAnchor: Boolean, slot: Int, anchorRef: Int)

  /** The compressed multi-frame container (§7.3's two output arrays plus
    * metadata). Self-contained: [[toBytes]]/[[fromBytes]] round-trip it.
    * It stores each frame's S/T choice and derives the frame table from them;
    * construction checks eb, the anchor scale and p as [[LcpConfig]] does,
    * and every list size against that table, so a decode only follows
    * slots and references that exist. */
  final case class LcpArchive(eb: Double, anchorEbScale: Double, batchSize: Int, p: Int,
                              temporal: IndexedSeq[Boolean],
                              anchors: IndexedSeq[Array[Byte]],
                              batches: IndexedSeq[IndexedSeq[Array[Byte]]]) {
    Quantizer.requireBound(eb, "archive error bound")
    requireScale(anchorEbScale)
    BlockIndex.blockBits(p)
    /** Every frame's anchor or payload slot and anchor reference. */
    val entries: IndexedSeq[FrameEntry] = LcpArchive.frameTable(temporal, batchSize)
    /** `anchorFrames(k)` is the frame stored as anchor k. */
    val anchorFrames: IndexedSeq[Int] = entries.indices.filter(entries(_).inAnchor)
    require(anchors.size == anchorFrames.size,
      s"archive: ${anchors.size} anchors for ${anchorFrames.size} spatial batch heads")
    require(batches.size == (numFrames + batchSize - 1L) / batchSize,
      s"archive: ${batches.size} batches for $numFrames frames at batch size $batchSize")
    batches.indices.foreach(b => require(batches(b).size == batchFrames(b).count(!entries(_).inAnchor),
      s"archive batch $b: ${batches(b).size} payloads do not match its frame table"))

    def numFrames: Int = temporal.size

    /** The frames of batch `b`. */
    def batchFrames(b: Int): Range = b * batchSize until math.min(numFrames.toLong, (b + 1L) * batchSize).toInt

    /** Total compressed size including every piece of metadata (the paper
      * counts all metadata — §8.1.3, MDZ note): the length of [[toBytes]],
      * summed from the fields and section lengths. */
    def compressedSizeBytes: Long =
      4L + 8 + 8 + Zigzag.varLongLen(batchSize.toLong) + Zigzag.varLongLen(p.toLong) +
        ByteIO.sectionSize(numFrames.toLong) + ByteIO.sectionListSize(anchors) +
        Zigzag.varLongLen(batches.size.toLong) + batches.map(ByteIO.sectionListSize).sum

    /** Header, the S/T choices (one byte per frame: 0 = LCP-S, 1 = LCP-T),
      * the anchor list, the batch count and each batch's list, written into
      * one array of [[compressedSizeBytes]]. The choices imply every count,
      * but until a checksum covers the archive, the stored counts are what
      * catch an edited batch size or a flipped head choice. */
    def toBytes: Array[Byte] = {
      val size = compressedSizeBytes
      require(size <= Int.MaxValue, s"archive of $size bytes")
      val out = new ByteIO.ExactOutput(size.toInt)
      out.write('L'); out.write('C'); out.write('P'); out.write('1')
      ByteIO.writeDouble(out, eb)
      ByteIO.writeDouble(out, anchorEbScale)
      Zigzag.writeVarLong(out, batchSize.toLong)
      Zigzag.writeVarLong(out, p.toLong)
      Zigzag.writeVarLong(out, numFrames.toLong)
      temporal.foreach(t => out.write(if (t) 1 else 0))
      ByteIO.writeSections(out, anchors)
      Zigzag.writeVarLong(out, batches.size.toLong)
      batches.foreach(ByteIO.writeSections(out, _))
      out.bytes
    }
  }

  object LcpArchive {
    /** §7.3's frame table from each frame's S/T choice: frame i heads a batch
      * when `i % batchSize == 0`; a spatial head is the next anchor; every other
      * frame takes the next payload slot of its batch; a temporal head refers
      * to the latest earlier anchor, which must exist. */
    def frameTable(temporal: IndexedSeq[Boolean], batchSize: Int): IndexedSeq[FrameEntry] = {
      require(batchSize >= 1, s"batch size must be >= 1, got $batchSize")
      var anchors, slot = 0 // anchors before frame i; payloads before it in its batch
      temporal.indices.map { i =>
        val head = i % batchSize == 0
        if (head) slot = 0
        if (head && !temporal(i)) { anchors += 1; FrameEntry(temporal = false, inAnchor = true, anchors - 1, -1) }
        else {
          require(!head || anchors > 0, s"frame $i: a temporal batch head needs an earlier anchor")
          slot += 1
          FrameEntry(temporal(i), inAnchor = false, slot - 1, if (head) anchors - 1 else -1)
        }
      }
    }

    /** The archive that stores `frames(i)`, frame i's bytes, where the
      * frame table places it. */
    def fromFrames(eb: Double, anchorEbScale: Double, batchSize: Int, p: Int, temporal: IndexedSeq[Boolean],
                   frames: IndexedSeq[Array[Byte]]): LcpArchive = {
      require(frames.size == temporal.size, s"${frames.size} frames for ${temporal.size} S/T choices")
      val table = frameTable(temporal, batchSize)
      LcpArchive(eb, anchorEbScale, batchSize, p, temporal,
        frames.indices.filter(table(_).inAnchor).map(frames),
        frames.indices.grouped(batchSize).map(_.filterNot(table(_).inAnchor).map(frames)).toIndexedSeq)
    }

    def fromBytes(bytes: Array[Byte]): LcpArchive = {
      val in = new ByteArrayInputStream(bytes)
      require(in.read() == 'L' && in.read() == 'C' && in.read() == 'P' && in.read() == '1',
        "not an LCP archive")
      val eb        = ByteIO.readDouble(in)
      val scale     = ByteIO.readDouble(in)
      val batchSize = ByteIO.readCount(in, Int.MaxValue, "archive batch size")
      val p         = ByteIO.readCount(in, Int.MaxValue, "archive block size")
      val temporal  = ByteIO.readSection(in).toIndexedSeq.map { m =>
        require(m == 0 || m == 1, s"archive frame method: bad value $m (0 = LCP-S, 1 = LCP-T)")
        m == 1
      }
      val anchors = ByteIO.readSections(in)
      // Every batch takes at least a byte, which bounds their count.
      val batches = IndexedSeq.fill(ByteIO.readCount(in, in.available().toLong, "archive batch count"))(
        ByteIO.readSections(in))
      ByteIO.requireEnd(in, "the archive's last batch")
      LcpArchive(eb, scale, batchSize, p, temporal, anchors, batches)
    }
  }

  /** Compression output. `perms(i)(s)` = original index of the particle at
    * stored slot s of frame i (codec-internal correspondence, used by tests
    * to verify the error bound per particle). `methods` (the archive's S/T
    * choices) and `tTrials` expose the FSM's behaviour for the
    * ablation/overhead benches. */
  final case class Result(archive: LcpArchive, perms: IndexedSeq[Array[Int]], tTrials: Int) {
    def methods: IndexedSeq[Char] = archive.temporal.map(t => if (t) 'T' else 'S')
  }

  /** §7.4.2 micro-trial: compress a particle-sampled prefix of 3 batches
    * with and without the anchor scale factor and compare total sizes. */
  private def scalingPays(frames: IndexedSeq[Frame], cfg: LcpConfig, p: Int): Boolean = {
    val prefix = frames.take(3 * cfg.batchSize)
    val n      = prefix.head.n
    if (n == 0 || prefix.exists(_.n != n)) return false
    val sampled =
      if (n <= 4096) prefix
      else {
        val stride = n.toDouble / 4096
        val idx    = Array.tabulate(4096)(i => (i * stride).toInt)
        prefix.map(_.reorder(idx))
      }
    // The two arms run concurrently.
    val Seq(base, scaled) = Fork.map(Seq(Off, Forced(EbScale.Factor))) { mode =>
      compress(sampled, cfg.copy(ebScaleMode = mode, blockSizeP = Some(p))).archive.compressedSizeBytes
    }
    scaled < base
  }

  /** Algorithm 1 with LCP-FSM selection and both §7.4 optimizations. */
  def compress(frames: IndexedSeq[Frame], cfg: LcpConfig): Result = {
    require(frames.nonEmpty, "no frames to compress")
    val p = cfg.blockSizeP.getOrElse(BlockSizeOpt.bestBlockSize(frames.head, cfg.eb)._1)
    // Auto scaling (§7.4.2: "dynamically analyze input data and apply this
    // error-bound scaling method selectively"): candidate only when frames
    // are temporally correlated and anchors are shared by several batch
    // heads; then a sampled micro-trial compresses a prefix both ways and
    // keeps the scaling only if it actually pays — whether tighter anchors
    // win depends on how much of the budget temporal frames consume, which
    // is cheap to measure and hard to predict.
    val scale = cfg.ebScaleMode match {
      case Off       => 1.0
      case Forced(f) => f
      case Auto      =>
        val batches = (frames.size + cfg.batchSize - 1) / cfg.batchSize
        if (batches >= 3 && EbScale.highTemporalCorrelation(frames, cfg.eb) &&
            scalingPays(frames, cfg, p)) EbScale.Factor
        else 1.0
    }

    val fsm      = new LcpFsm
    val coded    = new Array[Array[Byte]](frames.size)
    val temporal = IndexedSeq.newBuilder[Boolean]
    val perms    = IndexedSeq.newBuilder[Array[Int]]
    // LCP-T frames committed before packing, oldest first, with their
    // packing and Zstd running on the pool; at most one batch of them.
    val packing  = new java.util.ArrayDeque[(Int, Fork.Started[Array[Byte]])]

    // Codec state: previous frame's reconstruction + permutation, the last
    // anchor's ditto, the last actual LCP-S size (the FSM's S estimate).
    // Frame 0 has no basis, so it is spatial and sets the estimate before
    // any comparison.
    var prevRecon: Frame       = null
    var prevPerm: Array[Int]   = null
    var anchorRecon: Frame     = null
    var anchorPerm: Array[Int] = null
    var lastSSize              = -1L
    var tTrials                = 0

    for ((f, i) <- frames.zipWithIndex) {
      val firstInBatch = i % cfg.batchSize == 0
      val basisRecon   = if (firstInBatch) anchorRecon else prevRecon
      val basisPerm    = if (firstInBatch) anchorPerm else prevPerm
      val canTemporal =
        !cfg.disableTemporal && basisRecon != null && basisRecon.n == f.n && f.n > 0

      // Anchor frames (first-in-batch spatial) may use the scaled bound.
      val sEb = if (firstInBatch) cfg.eb / scale else cfg.eb

      // LCP-FSM step (§7.2): LCP-T runs only when the FSM asks to compare,
      // against the LCP-S estimate; LCP-S runs only when it is chosen. When
      // LCP-T's size bound is below the estimate, LCP-T wins whatever Zstd
      // makes of its body, so the frame is committed unpacked and packed on
      // the pool; otherwise it is packed here and its actual size compared.
      val compare = canTemporal && fsm.nextAction() == LcpFsm.Compare
      val t       = if (compare) { tTrials += 1; LcpT.trial(f, basisPerm, basisRecon, cfg.eb) } else null
      val early   = compare && t.maxBytes < lastSSize
      val tBytes  = if (compare && !early) t.pack() else null
      val spatialWon = !compare || (!early && lastSSize <= tBytes.length)
      fsm.observe(compare, spatialWon)
      temporal += !spatialWon

      if (spatialWon) {
        val spatial = LcpS.compress(f, sEb, p)
        lastSSize = spatial.bytes.length.toLong
        if (firstInBatch) { anchorRecon = spatial.recon; anchorPerm = spatial.perm }
        coded(i) = spatial.bytes
        prevRecon = spatial.recon; prevPerm = spatial.perm
        perms += spatial.perm
      } else {
        if (early) {
          packing.add(i -> Fork.start(t)(_.packHere()))
          while (packing.size > cfg.batchSize) { val (j, packed) = packing.poll(); coded(j) = packed.join() }
        } else coded(i) = tBytes
        prevRecon = t.recon; prevPerm = basisPerm
        perms += basisPerm
      }
    }
    packing.forEach { case (j, packed) => coded(j) = packed.join() }

    val archive = LcpArchive.fromFrames(cfg.eb, scale, cfg.batchSize, p, temporal.result(), coded.toIndexedSeq)
    Result(archive, perms.result(), tTrials)
  }

  /** Runs `decode`, the decoding of frame `i` of `a`. A failure raises an
    * `IllegalArgumentException` naming the frame, its batch and its stored
    * method, caused by the decoder's own error. The S/T choices are not
    * checksummed, so a flipped non-head choice passes `fromBytes` and
    * surfaces only here. */
  private def named(a: LcpArchive, i: Int)(decode: => Frame): Frame =
    try decode
    catch {
      case err: IllegalArgumentException =>
        throw new IllegalArgumentException(
          s"LCP archive: frame $i (batch ${i / a.batchSize}, stored as LCP-${if (a.temporal(i)) "T" else "S"}) " +
            s"does not decode: ${err.getMessage}", err)
    }

  /** The one chain decoder, behind [[decompressAll]], [[decompressBatch]]
    * and [[decompressFrame]] (§7.3): the frames of `ranges`, each a run of
    * frames of one batch, in frame order, whose first frame starts a
    * temporal chain (a spatial frame, or the batch head, whose temporal
    * basis is the anchor it references). It decodes in two phases.
    *
    * Phase 1 needs no basis. One flat [[Fork.map]] runs over the anchors
    * the ranges use, then every other frame of the ranges in frame order:
    * an LCP-S frame decodes whole, an LCP-T frame to its residual steps
    * ([[LcpT.steps]]), bounded by the header particle count of its chain
    * start. That is the nearest earlier LCP-S frame of its batch, or the
    * anchor its batch head references, so a chain's count may change at a
    * mid-batch LCP-S frame. Only this phase can fail; the failure raised is
    * the first in that order, named by [[named]].
    *
    * Phase 2 adds each LCP-T frame's basis in place ([[LcpT.addBasis]]),
    * along its chain, the previous frame or the anchor. x, y and z chain
    * independently, so it is one [[Fork.map]] over (range, dimension).
    */
  private def decode(a: LcpArchive, ranges: Seq[Range]): Seq[IndexedSeq[Frame]] = {
    val e = a.entries
    def bytes(i: Int): Array[Byte] = if (e(i).inAnchor) a.anchors(e(i).slot) else a.batches(i / a.batchSize)(e(i).slot)
    val anchors  = ranges.map(_.start).filter(_ % a.batchSize == 0)
      .map(i => if (e(i).inAnchor) e(i).slot else e(i).anchorRef).distinct.sorted
    // Every payload frame of the ranges, with the bytes of its chain start.
    val payloads = ranges.flatMap { r =>
      var start = if (e(r.start).temporal) a.anchors(e(r.start).anchorRef) else bytes(r.start)
      r.filterNot(e(_).inAnchor).map { i =>
        if (!e(i).temporal) start = bytes(i)
        (i, start)
      }
    }
    val decoded = Fork.map(anchors.map(k => () => named(a, a.anchorFrames(k))(LcpS.decompress(a.anchors(k)))) ++
      payloads.map { case (i, start) =>
        () => named(a, i) {
          if (e(i).temporal) LcpT.steps(bytes(i), Quantizer.frameCount(start, "LCP-S")) else LcpS.decompress(bytes(i))
        }
      })(_())
    val frames = new Array[Frame](a.numFrames)
    anchors.zip(decoded).foreach { case (k, f) => frames(a.anchorFrames(k)) = f }
    payloads.zip(decoded.drop(anchors.size)).foreach { case ((i, _), f) => frames(i) = f }
    // Frame i's temporal basis: its anchor at a batch head, else frame i - 1.
    def basis(i: Int): Frame = if (i % a.batchSize == 0) frames(a.anchorFrames(e(i).anchorRef)) else frames(i - 1)
    val dims = Seq[Frame => Array[Double]](_.x, _.y, _.z)
    Fork.map(for (r <- ranges if r.exists(a.temporal); dim <- dims) yield (r, dim)) { case (r, dim) =>
      r.foreach(i => if (e(i).temporal) LcpT.addBasis(dim(frames(i)), dim(basis(i))))
    }
    ranges.map(_.map(frames))
  }

  /** Decompress every frame of one batch — the paper's retrieval unit
    * (§2.1.3). Only the batch's payloads plus (at most) one anchor frame
    * are touched. */
  def decompressBatch(a: LcpArchive, batchIdx: Int): IndexedSeq[Frame] = {
    require(a.batches.indices.contains(batchIdx), s"batch $batchIdx outside 0 until ${a.batches.size}")
    decode(a, Seq(a.batchFrames(batchIdx))).head
  }

  /** Decompress a single frame: decode only its batch up to the frame (plus
    * one anchor when needed) — the §7.3 worst case. */
  def decompressFrame(a: LcpArchive, frameIdx: Int): Frame = {
    require(a.entries.indices.contains(frameIdx), s"frame $frameIdx outside 0 until ${a.numFrames}")
    val batchIdx = frameIdx / a.batchSize
    // A temporal chain starts at the nearest spatial frame at or before the
    // target, or at the batch head — only that suffix of the batch is decoded.
    var chainStart = frameIdx
    while (chainStart > batchIdx * a.batchSize && a.entries(chainStart).temporal) chainStart -= 1
    decode(a, Seq(chainStart to frameIdx)).head.last
  }

  /** Decompress the whole archive, every batch through one [[decode]]: each
    * anchor is decoded once and shared by every batch head that references
    * it. */
  def decompressAll(a: LcpArchive): IndexedSeq[Frame] =
    decode(a, a.batches.indices.map(a.batchFrames)).flatten.toIndexedSeq
}
