package repro.benchlib

import org.scalatest.funsuite.AnyFunSuite
import repro.core.BlockSizeOpt

/** The paper-figure cells each figure reads, and the Fig 9 title. Nothing
  * here compresses or generates a frame: the key lists are pure. */
class FigureCellsSpec extends AnyFunSuite {

  private def title(e: AblationTables.Errors): String = AblationTables.errorTable(e).linesIterator.next()

  test("Fig 9 title says > when the measured max error exceeds eb") {
    val t = title(AblationTables.Errors(0.1, math.nextUp(0.1), Seq.fill(10)(1L)))
    assert(t.endsWith("> eb) =="), t)
    assert(!t.contains("<= eb"), t)
  }

  test("Fig 9 title says <= when the measured max error is within eb") {
    for (maxErr <- Seq(0.05, 0.1)) {
      val t = title(AblationTables.Errors(0.1, maxErr, Seq.fill(10)(1L)))
      assert(t.endsWith("<= eb) =="), t)
    }
  }

  test("the multi-frame grid holds every key of Figs 8, 10-11 and 13 once: 292 keys") {
    val grid = CellGrid.multiKeys
    assert(grid.distinct.size == grid.size, "duplicate grid key")
    val read = RatioTables.keys ++ RateDistortionTables.multiKeys ++ AblationTables.keys
    assert(read.toSet.subsetOf(grid.toSet), s"missing: ${read.toSet -- grid}")
    assert(RatioTables.keys.size == 192 && RateDistortionTables.multiKeys.size == 128 && AblationTables.keys.size == 48)
    assert(grid.size == 292)
  }

  test("the LCP-S size table holds every (set, eb, p) of Figs 5-6 once: 408 keys") {
    val keys = OptTables.sizeKeys
    assert(keys.distinct.size == keys.size, "duplicate size key")
    val fig5 = for { ds <- Seq("Copper", "3DEP"); p <- BlockSizeOpt.Candidates } yield (ds, 1e-2, p)
    val fig6 = for { ds <- BenchData.SingleNames; eb <- BenchData.PaperEbs; p <- BlockSizeOpt.Candidates } yield (ds, eb, p)
    assert((fig5 ++ fig6).toSet.subsetOf(keys.toSet))
    assert(keys.size == 408)
  }
}
