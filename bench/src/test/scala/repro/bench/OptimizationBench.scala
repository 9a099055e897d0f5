package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.benchlib._

/** Figs 5–7: block-size study, optimizer effectiveness, eb-scale study. */
class OptimizationBench extends AnyFunSuite {

  private lazy val optimizer = OptTables.optimizerEffectiveness()
  private lazy val scaling   = OptTables.ebScaleSweep()

  test("Fig 5: block size sweep") {
    println(OptTables.blockSizeTable(OptTables.blockSizeSweep()))
  }

  test("Fig 6: block size optimizer effectiveness") {
    println(OptTables.optimizerTable(optimizer))
  }

  test("Fig 6 shape: optimizer reaches >= 85% of the best CR in most cases") {
    val ratios = optimizer.map(o => (s"${o.dataset}/${o.eb}", o.share))
    val below = ratios.filter(_._2 < 0.85)
    assert(below.size <= 2, s"optimizer below 85% in: $below")
    assert(ratios.forall(_._2 >= 0.70), s"optimizer catastrophically off: ${ratios.filter(_._2 < 0.70)}")
  }

  test("Fig 7: anchor eb scale sweep") {
    println(OptTables.ebScaleTable(scaling))
  }

  test("Fig 7 shape: scaling helps diffusive data at coarse bounds (anchor error dominates)") {
    def crAt(factor: Double): Double = scaling.find(s => s.dataset == "Helium" && s.factor == factor).get.cr
    val cr1 = crAt(1.0); val cr5 = crAt(5.0); val cr20 = crAt(20.0)
    assert(cr5 >= cr1 * 0.99, s"factor 5 should help at coarse eb: $cr5 vs $cr1")
    // Diminishing returns: pushing far past 5 gains nothing over 5.
    assert(cr20 <= cr5 * 1.05, s"returns should flatten: cr20=$cr20 vs cr5=$cr5")
  }

  test("Fig 7 shape: Auto applies scaling only when the micro-trial shows it pays") {
    // Vibration-regime Copper: temporal frames are nearly free, anchors
    // dominate — scaling must stay OFF despite high temporal correlation.
    val frames = BenchData.multi("Copper").take(16)
    val r = repro.core.Lcp.compress(frames.toIndexedSeq,
      repro.core.Lcp.LcpConfig(2e-1, batchSize = 4))
    assert(r.archive.anchorEbScale == 1.0,
      s"scaling should not engage when anchors dominate (got ${r.archive.anchorEbScale})")
  }
}
