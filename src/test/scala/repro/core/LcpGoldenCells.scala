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
    "cbe88b9a15e15ef395acd3c535162ec3b7360940c7fc1df3b0bf9431a903c54d",
    "9572d6ffed31a201702ca9fb4446aa87bcf3b34c984928854b5c5b1003226234")

  /** The same input with the anchor eb scale forced, so both anchors are scaled. */
  val twoAnchorsScaled: Cell = Cell("helium then copper 500x12, eb 0.01, batch 4, two anchors, eb scaling forced",
    twoAnchors.frames, twoAnchors.cfg.copy(ebScaleMode = Forced(EbScale.Factor)),
    "69a8b307e4af2b7310bd891f8d751b5396844a9e5e3250cc6ea4feaac0f9d4d1",
    "99924e67b010c973426a20451e600140ce37b6a696bc22a4c40cdaf629fd2e59")

  val all: Seq[Cell] = Seq(
    Cell("copper 800x8, eb 0.02, batch 4",
      () => TestFrames.copper(800, 8), LcpConfig(0.02, batchSize = 4),
      "69ccfe5437c173a26d46ae7e3fdb2a9f2402b1a1f70386b28cccef916a4dcb6f",
      "eab13f0ba1b8a7bb2e9c2d8ad61a6438959f411752d0dfbbcd8bdcbbbc5f07cd"),
    Cell("helium 1200x12, eb 0.05, batch 4, Auto eb scaling",
      () => TestFrames.helium(1200, 12), LcpConfig(0.05, batchSize = 4, ebScaleMode = Auto),
      "6ab940fa663eb0271d225b254f38fe9da44b21cb127af40896b69bdca0784d17",
      "ff4d50fc78f0e357ab68514759805a1c103f6584fc35dd8a0765ad51f132fb97"),
    Cell("lj 400x10, eb 0.02, batch 4",
      () => TestFrames.lj(400, 10), LcpConfig(0.02, batchSize = 4),
      "b1e222692332a84dcc6f26bee6a9ea826fc2c95a5fde6f595f88821066cfb476",
      "275e31044873796608d38bc2a00d46311518a086adc44a4fa1fe7de045618f50"),
    Cell("yiip 400x4, eb 0.02, batch 2",
      () => TestFrames.yiip(400, 4), LcpConfig(0.02, batchSize = 2),
      "cc373f05b3593a73d40c2f8442bb139e4a6445b7c00a16e9444df135c557de83",
      "237a239c32f5c9ef810ba5a0a88a2b2701cfbec0edf709b73f88a28fefe57962"),
    Cell("bunny single frame, eb 0.01",
      () => IndexedSeq(TestFrames.bunny(500)), LcpConfig(0.01, batchSize = 8),
      "51866544a9f701f39d249b195ddf356b39a025d1516d17dfa67370290a0e36fb",
      "0b8dbbea00ba063a3f5f5544203daa1a0d48d2a104ceb5625f794008871eb26b"),
    Cell("copper 500x6, eb 0.05, batch 3, temporal disabled",
      () => TestFrames.copper(500, 6), LcpConfig(0.05, batchSize = 3, disableTemporal = true),
      "f4fe0df6285d33bbebb03aac279254e2c286557e37e1db09e675056bcb34bf21",
      "5f97f6ec6f732c8d93db8bda4e2020603d5241fa1064246bb7cb9db2402951ed"),
    Cell("helium 600x5, eb 0.01, batch 2, block size p = 1",
      () => TestFrames.helium(600, 5), LcpConfig(0.01, batchSize = 2, blockSizeP = Some(1)),
      "7ae05d14e8c7872061b82a0fcb4a02674d02db1973be99e918a08be2e2ccd6d6",
      "578026504524d6160978b9f14da543e6ba0e9efec6be34347738da1d03cce2e5"),
    twoAnchors, twoAnchorsScaled)
}
