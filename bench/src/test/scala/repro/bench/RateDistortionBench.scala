package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.benchlib._
import repro.metrics.Metrics

/** Figs 12 + 13: rate-distortion in single- and multi-frame modes. */
class RateDistortionBench extends AnyFunSuite {

  test("Fig 12: single-frame rate-distortion") {
    println(RateDistortionTables.singleFrame())
    println(RateDistortionTables.psnrAdvantage())
  }

  test("Fig 13: multi-frame rate-distortion (batch 16)") {
    println(RateDistortionTables.multiFrame())
  }

  test("Fig 12 shape: at equal eb, LCP's bit rate beats the error-bounded baselines in most cells") {
    val combos = for ((_, f) <- BenchData.singleFrame; eb <- Seq(1e-1, 1e-2)) yield (f, eb)
    val results = Par.map(combos) { case (f, eb) =>
      val frames = IndexedSeq(f)
      val lcp = BenchData.codecs.head.compress(frames, eb, 1).payload.length
      BenchData.codecs.drop(1).filter(_.errorBounded)
        .map(codec => lcp <= codec.compress(frames, eb, 1).payload.length)
    }.flatten
    val wins = results.count(identity)
    assert(wins.toDouble / results.size > 0.8, s"LCP won only $wins of ${results.size} equal-eb cells")
  }

  test("Fig 12 shape: PSNR always clears the quantization floor at matched eb") {
    // Uniform quantization at bound eb has RMSE <= eb (uniform: eb/sqrt(3)),
    // so PSNR >= 20 log10(range/eb). LCP must sit at or above that floor.
    for ((ds, f) <- BenchData.singleFrame.take(4)) {
      val eb = 1e-2
      val codec = BenchData.codecs.head
      val c   = codec.compress(IndexedSeq(f), eb, 1)
      val dec = codec.decompress(c.payload)
      val psnr = Metrics.psnr(Seq(f), dec, c.perms)
      val floor = 20 * math.log10(f.valueRange / eb)
      assert(psnr >= floor - 1e-6, s"$ds: PSNR $psnr below quantization floor $floor")
    }
  }

  test("Fig 12 shape: Draco rate-distortion is a staircase (repeated points)") {
    val f = BenchData.singleFrame.find(_._1 == "BUN-ZIPPER").get._2
    val sizes = Seq(0.010, 0.011, 0.012).map { eb =>
      repro.baselines.DracoLike.compress(IndexedSeq(f), eb, 1).payload.length
    }
    assert(sizes.distinct.size < sizes.size, s"expected repeated quality levels, got $sizes")
  }
}
