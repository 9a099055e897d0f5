package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.benchlib._

/** Table 2: spatial blocking lowers entropy and raises autocorrelation of
  * the quantized data — the mechanism LCP-S's coding gains rest on.
  * Paper shape: entropy no-block ≫ BS=64 > BS=8; autocorr rises toward 1.
  */
class Table2BlockingBench extends AnyFunSuite {

  private lazy val blocking = DataTables.blocking()

  test("Table 2: blocking vs entropy/autocorrelation") {
    println(DataTables.blockingTable(blocking))
  }

  test("Table 2 shape: entropy strictly decreases with blocking on all three datasets") {
    for (b <- blocking) {
      assert(b.ent64 < b.entNo, s"${b.dataset}: BS=64 must lower entropy")
      assert(b.ent8 < b.ent64, s"${b.dataset}: BS=8 must lower entropy further")
      assert(b.ent8 <= 3.0 + 1e-9, s"${b.dataset}: 8-bin relative values need <= 3 bits")
    }
  }

  test("Table 2 shape: block ordering raises lag-1 autocorrelation") {
    for (b <- blocking) {
      assert(b.ac8 > b.acNo + 0.3, s"${b.dataset}: block order must raise autocorrelation (${b.acNo} -> ${b.ac8})")
      // Copper sits near one particle per lattice site at bench scale, so
      // its blocked sequence jumps sites every few particles — the paper's
      // denser Copper reaches 0.9999; the *rise* is the reproduced shape.
      assert(b.ac8 > 0.6, s"${b.dataset}: blocked autocorrelation should be high (${b.ac8})")
    }
  }
}
