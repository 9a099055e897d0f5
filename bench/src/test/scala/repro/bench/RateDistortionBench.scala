package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.benchlib._

/** Figs 12 + 13: rate-distortion in single- and multi-frame modes. */
class RateDistortionBench extends AnyFunSuite {

  private lazy val single = RateDistortionTables.singleFrame()

  private def point(ds: String, codec: String, eb: Double): RateDistortionTables.Point =
    single.find(p => p.dataset == ds && p.codec == codec && p.eb == eb).get

  test("Fig 12: single-frame rate-distortion") {
    println(RateDistortionTables.singleFrameTable(single))
    println(RateDistortionTables.psnrAdvantage(single))
  }

  test("Fig 13: multi-frame rate-distortion (batch 16)") {
    println(RateDistortionTables.multiFrameTable(RateDistortionTables.multiFrame()))
  }

  test("Fig 12 shape: at equal eb, LCP's bit rate beats the error-bounded baselines in most cells") {
    val results = for {
      (ds, _) <- BenchData.singleFrame
      eb      <- Seq(1e-1, 1e-2)
      codec   <- BenchData.codecs.drop(1).filter(_.errorBounded)
    } yield point(ds, "LCP", eb).bytes <= point(ds, codec.name, eb).bytes
    val wins = results.count(identity)
    assert(wins.toDouble / results.size > 0.8, s"LCP won only $wins of ${results.size} equal-eb cells")
  }

  test("Fig 12 shape: PSNR always clears the quantization floor at matched eb") {
    // Uniform quantization at bound eb has RMSE <= eb (uniform: eb/sqrt(3)),
    // so PSNR >= 20 log10(range/eb). LCP must sit at or above that floor.
    for ((ds, f) <- BenchData.singleFrame.take(4)) {
      val eb = 1e-2
      val psnr  = point(ds, "LCP", eb).psnr
      val floor = 20 * math.log10(f.valueRange / eb)
      assert(psnr >= floor - 1e-6, s"$ds: PSNR $psnr below quantization floor $floor")
    }
  }

  test("Fig 12 shape: Draco rate-distortion is a staircase (repeated points)") {
    val f = BenchData.single("BUN-ZIPPER")
    val sizes = Seq(0.010, 0.011, 0.012).map { eb =>
      repro.baselines.DracoLike.compress(IndexedSeq(f), eb, 1).payload.length
    }
    assert(sizes.distinct.size < sizes.size, s"expected repeated quality levels, got $sizes")
  }
}
