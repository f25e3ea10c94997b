package repro.bench

import repro.datasets.DatasetCatalog
import repro.harness.{BenchHarness, TableFormat}

/** Table II — dataset statistics (|V|, |E|, component count) for all twelve
  * benchmark graphs, next to the paper's originals, plus the Fig. 5
  * component-size distribution check (log-log linear shape) for the
  * Bitcoin-addresses and Andromeda analogues.
  */
class TableIISuite extends BenchBase {

  test("Table II: dataset statistics") {
    val rows = DatasetCatalog.all.map(d => d -> BenchHarness.prepare(spark, d.build))
    val table = TableFormat.tableII(rows)
    println("\n=== Table II (datasets; ours at bench scale vs paper) ===")
    println(table)
    TableFormat.save("table2_datasets.txt", table)
    rows.foreach(_._2.tracker.dropAll()) // the checks below read driver-side statistics only

    val byName = rows.map { case (d, s) => d.name -> s }.toMap
    // Structural invariants mirroring the paper's Table II:
    assert(byName("Path100M").components == 1L)
    assert(byName("PathUnion10").components == 10L)
    assert(byName("Friendster").componentSizes.values.max.toDouble /
      byName("Friendster").vertices > 0.5, "Friendster analogue should have a giant component")
    assert(byName("Candels20").vertices.toDouble / byName("Candels10").vertices > 1.6,
      "Candels series must roughly double")
    assert(rows.forall(_._2.rows > 0))

    // Fig. 5: component sizes roughly scale-free for Bitcoin addresses and
    // Andromeda — many more small components than large ones, with a heavy
    // tail. Print the log-log histogram and check monotone-decreasing shape
    // over the first decades.
    for (name <- Seq("Bitcoin addresses", "Andromeda")) {
      val sizes = byName(name).componentSizes.values.toSeq
      val hist  = sizes.groupBy(s => math.min(20, (math.log(s.toDouble) / math.log(2)).toInt))
        .view.mapValues(_.size).toSeq.sortBy(_._1)
      println(s"\nFig. 5 check — $name component-size histogram (log2 buckets):")
      hist.foreach { case (b, n) => println(f"  2^$b%-2d ≤ size < 2^${b + 1}%-2d : $n") }
      val counts = hist.map(_._2.toDouble)
      // Heavy tail: the frequency peak sits in the smallest two buckets and
      // small components vastly outnumber large ones.
      assert(counts.take(2).max == counts.max,
        s"$name: component frequency must peak at small sizes")
      val (small, large) = hist.partition(_._1 <= 2)
      assert(small.map(_._2).sum > 4 * large.map(_._2).sum,
        s"$name: small components must dominate")
      assert(hist.size >= 3, s"$name: needs a size spread of at least 3 decades")
    }
  }
}
