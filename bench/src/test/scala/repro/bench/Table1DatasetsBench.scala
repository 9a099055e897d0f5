package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.benchlib._

/** Table 1: dataset roster at bench scale. */
class Table1DatasetsBench extends AnyFunSuite {
  test("Table 1: datasets") {
    val ds = DataTables.datasets()
    println(DataTables.datasetTable(ds))
    assert(ds.size == 8)
    assert(ds.exists(d => d.name == "HACC" && d.domain == "Cosmology"))
  }
}
