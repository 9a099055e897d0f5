package repro.metrics

import org.scalatest.funsuite.AnyFunSuite
import repro.TestFrames
import repro.core.{BlockIndex, Frame, LcpS, Quantizer}

class MetricsSpec extends AnyFunSuite {

  test("originalSizeBytes uses FP32 semantics") {
    val f = TestFrames.bunny(100)
    assert(Metrics.originalSizeBytes(Seq(f)) == 3L * 4 * 100)
  }

  test("compression ratio and bit rate are consistent") {
    val f = TestFrames.bunny(1000)
    val cr = Metrics.compressionRatio(Seq(f), 1200)
    val br = Metrics.bitRate(Seq(f), 1200)
    assert(math.abs(cr * br - 32.0) < 1e-9) // CR * bitrate = 32 for FP32
  }

  test("maxAbsError zero for identical frames") {
    val f = TestFrames.bunny(50)
    assert(Metrics.maxAbsError(f, f, null) == 0.0)
  }

  test("maxAbsError uses the permutation") {
    val f = Frame(Array(1.0, 2.0), Array(0.0, 0.0), Array(0.0, 0.0))
    val r = Frame(Array(2.0, 1.0), Array(0.0, 0.0), Array(0.0, 0.0))
    assert(Metrics.maxAbsError(f, r, Array(1, 0)) == 0.0)
    assert(Metrics.maxAbsError(f, r, null) == 1.0)
  }

  test("psnr infinite for perfect reconstruction") {
    val f = TestFrames.bunny(100)
    assert(Metrics.psnr(Seq(f), Seq(f), Seq(null)).isPosInfinity)
  }

  test("psnr decreases as error grows") {
    val f = TestFrames.bunny(500)
    def noisy(s: Double) = {
      val rng = new java.util.Random(1)
      Frame(f.x.map(_ + rng.nextGaussian() * s), f.y.map(_ + rng.nextGaussian() * s), f.z.map(_ + rng.nextGaussian() * s))
    }
    val p1 = Metrics.psnr(Seq(f), Seq(noisy(0.001)), Seq(null))
    val p2 = Metrics.psnr(Seq(f), Seq(noisy(0.01)), Seq(null))
    assert(p1 > p2)
  }

  test("psnr of a sequence is unchanged by an empty frame") {
    val f = TestFrames.helium(200, 1).head
    val r = LcpS.compress(f, 1e-2, 64)
    val one = Metrics.psnr(Seq(f), Seq(r.recon), Seq(r.perm))
    assert(!one.isNaN && !one.isInfinite)
    assert(Metrics.psnr(Seq(f, Frame.empty), Seq(r.recon, Frame.empty), Seq(r.perm, null)) == one)
  }

  test("psnr rejects a decode with a frame too few or too many, a missing permutation and no frames") {
    val fs = TestFrames.helium(200, 3)
    for ((recon, perms) <- Seq((fs.init, fs.map(_ => null)), (fs :+ fs.head, fs.map(_ => null)), (fs, Seq(null))))
      withClue(s"${recon.size} decoded frames, ${perms.size} permutations: ") {
        intercept[IllegalArgumentException](Metrics.psnr(fs, recon, perms))
      }
    intercept[IllegalArgumentException](Metrics.psnr(Seq.empty, Seq.empty, Seq.empty))
  }

  test("psnr rejects a decoded frame whose particle count differs from the original's") {
    val f = TestFrames.bunny(100)
    for (r <- Seq(TestFrames.bunny(101), f.reorder(Array.range(0, 99)))) withClue(s"${r.n} particles: ") {
      val e = intercept[IllegalArgumentException](Metrics.psnr(Seq(f), Seq(r), Seq(null)))
      assert(e.getMessage.contains(s"frame size mismatch 100 vs ${r.n}"), e.getMessage)
    }
  }

  test("entropy of a constant array is 0, of uniform 2^k alphabet is k") {
    assert(Metrics.shannonEntropy(Array.fill(100)(5L)) == 0.0)
    val a = Array.tabulate(1024)(i => (i % 16).toLong)
    assert(math.abs(Metrics.shannonEntropy(a) - 4.0) < 1e-9)
  }

  test("lag-1 autocorrelation: constant -> 1, alternating -> negative, smooth -> high") {
    assert(Metrics.lag1Autocorrelation(Array.fill(10)(3.0)) == 1.0)
    val alt = Array.tabulate(1000)(i => if (i % 2 == 0) 1.0 else -1.0)
    assert(Metrics.lag1Autocorrelation(alt) < -0.9)
    val smooth = Array.tabulate(1000)(i => math.sin(i * 0.01))
    assert(Metrics.lag1Autocorrelation(smooth) > 0.99)
  }

  test("Table 2 mechanism: blocking lowers entropy of coded values") {
    // Entropy of raw quantization bins vs entropy of block-relative values.
    val f  = TestFrames.yiip(4000).head
    val qf = Quantizer.quantizeFrame(f, 1e-3)
    val noBlock = Metrics.shannonEntropy(qf.qx)
    val bs64 = Metrics.shannonEntropy(BlockIndex.group(qf, 64).relX)
    val bs8  = Metrics.shannonEntropy(BlockIndex.group(qf, 8).relX)
    assert(bs64 < noBlock, s"BS=64 $bs64 !< no-block $noBlock")
    assert(bs8 < bs64, s"BS=8 $bs8 !< BS=64 $bs64")
  }

  test("time measures wall clock") {
    val (v, s) = Metrics.time { Thread.sleep(20); 42 }
    assert(v == 42 && s >= 0.015)
  }

  test("mbPerSec") {
    assert(math.abs(Metrics.mbPerSec(10_000_000, 2.0) - 5.0) < 1e-9)
  }
}
