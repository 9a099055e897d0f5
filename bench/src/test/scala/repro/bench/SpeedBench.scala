package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.benchlib._

/** Figs 16–18: compression / decompression / retrieval throughput. */
class SpeedBench extends AnyFunSuite {

  private lazy val single = SpeedTables.singleFrame()
  private lazy val batch  = SpeedTables.batchMode()

  test("Fig 16 + 17: single-frame compression/decompression/retrieval speed") {
    println(SpeedTables.table("Fig 16+17: single-frame speed (MB/s of original data)", single))
    println(SpeedTables.decompressionAdvantage(single,
      "Fig 17 summary: LCP single-frame retrieval vs best baseline"))
  }

  test("Fig 18: batch-mode speed (batch = 16)") {
    println(SpeedTables.table("Fig 18: batch-mode speed (MB/s of original data)", batch))
    println(SpeedTables.decompressionAdvantage(batch,
      "Fig 18 summary: LCP batch retrieval vs best baseline"))
  }

  test("speed shape: every codec exceeds 0.4 MB/s compress, 5 MB/s decompress (sanity floor)") {
    (single ++ batch).flatMap(_.speeds).foreach { s =>
      assert(s.compMBs > 0.4 && s.decompMBs > 5, s"${s.dataset}/${s.codec}: $s")
    }
  }

  test("speed shape: SPERR is never the fastest single-frame compressor") {
    // §8.1.3/§8.2.6 have SPERR's transform + correction pass make it the
    // slowest codec. Here it forks its three dimensions and is mid-tier
    // (EXPERIMENTS.md, deviation 6), so this checks only that it is not the
    // fastest on any single-frame set.
    for (set <- single) {
      val sperr   = set.speeds.find(_.codec == "SPERR").get.compMBs
      val fastest = set.speeds.map(_.compMBs).max
      assert(sperr < fastest, s"${set.speeds.head.dataset}: SPERR should not be fastest")
    }
  }

  test("speed shape: LCP compression is mid-tier (slower than ZFP, far from slowest)") {
    // Fig 16: LCP sits between the transform coders (ZFP fast) and the
    // slowest codec on each dataset (its dynamic block-size sweep costs a
    // few sampled compressions per frame).
    for (set <- single) {
      val lcp     = set.speeds.find(_.codec == "LCP").get.compMBs
      val zfp     = set.speeds.find(_.codec == "ZFP").get.compMBs
      val slowest = set.speeds.map(_.compMBs).min
      assert(lcp < zfp, s"${set.speeds.head.dataset}: LCP ($lcp) should not outrun ZFP ($zfp)")
      assert(lcp > slowest * 0.9, s"${set.speeds.head.dataset}: LCP ($lcp) should not be clearly slowest ($slowest)")
    }
  }

  test("speed shape: LCP has the smallest compressed payload on most datasets (the I/O term)") {
    val sets = single ++ batch
    var wins = 0
    for (set <- sets) {
      val lcp  = set.speeds.find(_.codec == "LCP").get.compBytes
      val best = set.speeds.filter(_.codec != "LCP").map(_.compBytes).min
      if (lcp <= best) wins += 1
      // The idealized octree (TMC13-like) can edge LCP on ultra-sparse
      // clustered single frames (bunny/HACC) — see EXPERIMENTS.md.
      assert(lcp <= best * 1.4, s"${set.speeds.head.dataset}: LCP $lcp B vs best baseline $best B")
    }
    assert(wins >= sets.size / 2, s"LCP smallest on only $wins of ${sets.size}")
  }

  test("speed shape: over a slow link, LCP retrieval leads on coherent batch data, top-4 overall") {
    // Single-frame retrieval is led by the point-cloud coders (Draco/TMC13
    // decode a single Morton stream); LCP's far smaller *temporal* archives
    // make it the retrieval leader in batch mode — see EXPERIMENTS.md for
    // the deviation from the paper's uniform Fig 17 lead.
    def rank(set: SpeedTables.SpeedSet): (String, String, Int, Double, Double) = {
      val vals = set.speeds.map(s => s.codec -> s.retrievalMBs(set.origBytes, SpeedTables.SlowLinkMBs))
      val by   = vals.sortBy(-_._2)
      (set.speeds.head.dataset, by.head._1, by.indexWhere(_._1 == "LCP"),
        vals.find(_._1 == "LCP").get._2, by(3)._2)
    }
    val batchRanks = batch.map(rank)
    val firsts = batchRanks.count(_._2 == "LCP")
    assert(firsts >= 2, s"LCP best batch slow-link retrieval on only $firsts of 4: $batchRanks")
    // Tie-tolerant top-4 on most datasets: uniform-gas Helium has no
    // spatial structure for a *single* frame, making it LCP's weakest
    // retrieval cell (its Helium strength is the multi-frame mode above).
    val inTop4 = (single ++ batch).map(rank).count { case (_, _, pos, lcpVal, fourth) =>
      pos <= 3 || lcpVal >= fourth * 0.95
    }
    assert(inTop4 >= 6, s"LCP in (tie-tolerant) top-4 slow-link retrieval on only $inTop4 of 8")
  }
}
