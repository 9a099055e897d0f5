package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.benchlib._

/** Figs 10 + 11: compression-ratio comparison over all codecs, datasets,
  * batch sizes and error bounds. */
class RatioBench extends AnyFunSuite {

  private lazy val cells        = RatioTables.cells()
  private lazy val improvements = RatioTables.improvements(cells)

  test("Fig 11: compression ratio table") {
    println(RatioTables.ratios(cells))
    println(RatioTables.improvementTable(improvements))
  }

  test("Fig 10: CD-diagram analog (mean rank)") {
    val ranks = RatioTables.ranking(cells)
    println(RatioTables.rankingTable(ranks))
    assert(ranks.head.codec == "LCP", s"LCP must rank first overall, got: $ranks")
  }

  test("Fig 11 shape: LCP has the highest CR on every dataset at batch 16 (mean over ebs)") {
    for (i <- improvements)
      assert(i.lcpCr > i.secondCr, s"${i.dataset}: LCP ${i.lcpCr} vs second ${i.secondCr}")
  }

  test("Fig 11 shape: larger batch never hurts LCP (longer temporal domain)") {
    for (ds <- BenchData.multiFrame.map(_._1); eb <- BenchData.PaperEbs) {
      val b8  = cells.find(c => c.dataset == ds && c.batch == 8 && c.eb == eb).get.crByCodec("LCP")
      val b16 = cells.find(c => c.dataset == ds && c.batch == 16 && c.eb == eb).get.crByCodec("LCP")
      assert(b16 >= b8 * 0.98, s"$ds eb=$eb: batch16 $b16 < batch8 $b8")
    }
  }

  test("Fig 11 shape: higher error bound gives higher CR for LCP") {
    for (ds <- BenchData.multiFrame.map(_._1)) {
      val by = BenchData.PaperEbs.map(eb =>
        cells.find(c => c.dataset == ds && c.batch == 16 && c.eb == eb).get.crByCodec("LCP"))
      assert(by(0) > by(1) && by(1) > by(2), s"$ds: CR not monotone in eb: $by")
    }
  }
}
