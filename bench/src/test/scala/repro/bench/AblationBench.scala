package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.benchlib._
import repro.metrics.Metrics

/** Fig 8 (ablation) + Fig 9 (error distribution). */
class AblationBench extends AnyFunSuite {

  private lazy val ablation = AblationTables.ablation()
  private lazy val errors   = AblationTables.errorDistribution()

  /** Payload bytes by ablation stage name. */
  private def sizes(ds: String, eb: Double): Map[String, Long] =
    AblationTables.variants.map(_._1).zip(ablation.find(a => a.dataset == ds && a.eb == eb).get.bytes).toMap

  test("Fig 8: ablation table") {
    println(AblationTables.ablationTable(ablation))
  }

  test("Fig 8 shape: each stage helps (BLK universally, T on coherent data)") {
    for ((ds, _) <- BenchData.multiFrame) {
      val s = sizes(ds, 1e-2)
      // Dynamic block size never hurts beyond sampling noise (Fig 8 line 2).
      assert(s("LCP-S+BLK") <= s("LCP-S") * 1.05, s"$ds: BLK hurt")
      // The temporal hybrid never loses to spatial-only: the FSM falls back
      // to LCP-S when LCP-T does not pay (Fig 8 line 3).
      assert(s("LCP-S+BLK+T") <= s("LCP-S+BLK") * 1.02, s"$ds: hybrid hurt")
      // Full LCP stays within noise of the best ablation stage.
      assert(s("LCP-S+BLK+T+EB") <= s("LCP-S+BLK+T") * 1.05, s"$ds: EB scaling hurt")
    }
  }

  test("Fig 8 shape: temporal stage is a large win on the diffusive MD sets") {
    // Helium/LJ: particles drift, so only the temporal domain shrinks the
    // data at coarse bounds. (Vibration-regime Copper compresses spatially
    // almost for free at eb=1e-1 and the FSM rightly keeps LCP-S there.)
    for (ds <- Seq("Helium", "LJ")) {
      val s = sizes(ds, 1e-1) // coarse bound: frame-to-frame motion within a few bins
      val blk  = s("LCP-S+BLK")
      val full = s("LCP-S+BLK+T+EB")
      assert(full < blk / 2, s"$ds: temporal should win big at coarse eb ($full vs $blk)")
    }
  }

  test("Fig 9: error distribution, max error within bound") {
    println(AblationTables.errorTable(errors))
    assert(Metrics.withinBound(errors.maxErr, errors.eb), s"max |err| ${errors.maxErr} > eb ${errors.eb}")
  }
}
