package repro.core

import repro.TestFrames
import repro.core.Lcp._

/** The golden LCP cells that `GoldenArchiveSpec` and `DecodeDigestSpec`
  * pin: each cell's input and configuration, with the SHA-256 of its
  * serialized archive and of its decoded doubles. */
object LcpGoldenCells {

  final case class Cell(name: String, frames: () => IndexedSeq[Frame], cfg: LcpConfig,
                        archiveDigest: String, decodedDigest: String)

  /** Four Helium frames, then eight Copper frames: the Copper head at frame 4
    * starts a second anchor, and the temporal head at frame 8 predicts from
    * it. */
  val twoAnchors: Cell = Cell("helium then copper 500x12, eb 0.01, batch 4, two anchors, Auto eb scaling",
    () => TestFrames.heliumThenCopper(500, 12), LcpConfig(0.01, batchSize = 4, ebScaleMode = Auto),
    "c0d880cd9bc95bcd63ccd4895c598d11b505970d948e890dff2dae18ef8abf74",
    "9572d6ffed31a201702ca9fb4446aa87bcf3b34c984928854b5c5b1003226234")

  /** The same input with the anchor eb scale forced, so both anchors are scaled. */
  val twoAnchorsScaled: Cell = Cell("helium then copper 500x12, eb 0.01, batch 4, two anchors, eb scaling forced",
    twoAnchors.frames, twoAnchors.cfg.copy(ebScaleMode = Forced(EbScale.Factor)),
    "45dd7c181597a014557acef4fede0bca69a6772f2e4f7e160f2a229b0b1ff6d8",
    "99924e67b010c973426a20451e600140ce37b6a696bc22a4c40cdaf629fd2e59")

  /** Copper at eb 0.1: LCP-T wins each of its 7 trials by less than the
    * Zstd worst case of its body, so each comparison needs the packed frame. */
  val packedTWins: Cell = Cell("copper 800x8, eb 0.1, batch 4, LCP-T wins by its packed size",
    () => TestFrames.copper(800, 8), LcpConfig(0.1, batchSize = 4),
    "6399a783456dd04825bafdf72d66d70b9b8b265cebe92c4a5450015f44d61756",
    "5f40495fea97a40a3baa9c560d7061e3c488338344b7896f3348ecfc153d5a14")

  val all: Seq[Cell] = Seq(
    Cell("copper 800x8, eb 0.02, batch 4",
      () => TestFrames.copper(800, 8), LcpConfig(0.02, batchSize = 4),
      "2da967994f501fc4b18d99f9798c36092b7ba08590fd2c790e760ed86ad9220b",
      "eab13f0ba1b8a7bb2e9c2d8ad61a6438959f411752d0dfbbcd8bdcbbbc5f07cd"),
    Cell("helium 1200x12, eb 0.05, batch 4, Auto eb scaling",
      () => TestFrames.helium(1200, 12), LcpConfig(0.05, batchSize = 4, ebScaleMode = Auto),
      "64f9e376d57ea651b3a50fbfa76a05799809e694c1f346b48dcab7a121e7778e",
      "ff4d50fc78f0e357ab68514759805a1c103f6584fc35dd8a0765ad51f132fb97"),
    Cell("lj 400x10, eb 0.02, batch 4",
      () => TestFrames.lj(400, 10), LcpConfig(0.02, batchSize = 4),
      "6d8c4ec6cf2324cbc5091f4ba7a0b54964504cad600bc0e23b6e01248a2bf02c",
      "275e31044873796608d38bc2a00d46311518a086adc44a4fa1fe7de045618f50"),
    Cell("yiip 400x4, eb 0.02, batch 2",
      () => TestFrames.yiip(400, 4), LcpConfig(0.02, batchSize = 2),
      "d2ccca65408c8f4d6211aac718e46bd701578ac0acfa2140fc045ec366c491d8",
      "237a239c32f5c9ef810ba5a0a88a2b2701cfbec0edf709b73f88a28fefe57962"),
    Cell("bunny single frame, eb 0.01",
      () => IndexedSeq(TestFrames.bunny(500)), LcpConfig(0.01, batchSize = 8),
      "4701d151cb0266cf957beef834a55c4ed04691d28bd5dc7cf4f0a652d490cc92",
      "0b8dbbea00ba063a3f5f5544203daa1a0d48d2a104ceb5625f794008871eb26b"),
    Cell("copper 500x6, eb 0.05, batch 3, temporal disabled",
      () => TestFrames.copper(500, 6), LcpConfig(0.05, batchSize = 3, disableTemporal = true),
      "225f503b3115c7a9b5ed3e3d956766457ba39823e0153234da45d1f4bdc1c768",
      "5f97f6ec6f732c8d93db8bda4e2020603d5241fa1064246bb7cb9db2402951ed"),
    Cell("helium 600x5, eb 0.01, batch 2, block size p = 1",
      () => TestFrames.helium(600, 5), LcpConfig(0.01, batchSize = 2, blockSizeP = Some(1)),
      "c49738bd15e776f31c0842915f58226711ab9f22c73b1e7e152a8282a1a66897",
      "578026504524d6160978b9f14da543e6ba0e9efec6be34347738da1d03cce2e5"),
    packedTWins, twoAnchors, twoAnchorsScaled)
}
