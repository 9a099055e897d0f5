package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.benchlib._
import repro.coding.IntCoder
import repro.core.{BlockIndex, Quantizer}

/** Table 3: Huffman vs fixed-length per LCP-S section. The paper's point is
  * that the winner varies by dataset and bound, so LCP must pick per array
  * by expected length. */
class Table3CodingBench extends AnyFunSuite {

  private lazy val coding = DataTables.coding()

  test("Table 3: Huffman vs fixed-length section sizes") {
    println(DataTables.codingTable(coding))
  }

  test("Table 3 shape: the optimal coding method varies across cells") {
    val winners = for {
      c       <- coding.map(_.costs)
      (h, fx) <- Seq((c.blockIdHuffman, c.blockIdFixed), (c.relPosHuffman, c.relPosFixed))
    } yield h.exists(_ < fx)
    assert(winners.contains(true), "Huffman should win at least one cell")
    assert(winners.contains(false), "fixed-length should win at least one cell")
  }

  test("Table 3 shape: pick-smaller never loses to either single method") {
    for {
      name <- Seq("Helium", "Copper")
      f = BenchData.single(name)
      eb <- Seq(1e-1, 1e-3)
    } {
      // Grouped at the p LCP-S itself uses for a requested 64.
      val qf      = Quantizer.quantizeFrame(f, eb)
      val grouped = BlockIndex.group(qf, BlockIndex.fittingP(qf, 64))
      val auto  = IntCoder.encode(grouped.blockIds).length
      val fixed = IntCoder.encodeForced(grouped.blockIds, delta = true, useHuffman = false).length
      val huff  = IntCoder.encodeForced(grouped.blockIds, delta = true, useHuffman = true).length
      assert(auto == math.min(fixed, huff), s"$name eb=$eb: auto $auto vs fixed $fixed / huff $huff")
    }
  }
}
