package repro.bench

import repro.harness.{BenchHarness, TableFormat}

/** Tables II, III, IV and V — one sweep of {RC, HM, TP, CR} over all twelve
  * datasets produces all four tables (dataset statistics, runtime, max space,
  * total written), exactly as one database run did in the paper. Each dataset
  * is prepared once, and its edge table freed before the next is prepared.
  */
class TablesIIToVSuite extends BenchBase {

  private lazy val sweep = BenchHarness.sweep(spark)

  /** Table II's statistics, plus the Fig. 5 component-size distribution
    * check (log-log linear shape) for the Bitcoin-addresses and Andromeda
    * analogues. The statistics are driver-side: the sweep has freed the
    * edge tables.
    */
  test("Table II: dataset statistics") {
    val rows  = sweep.map { case (d, s, _) => d -> s }
    val table = TableFormat.tableII(rows)
    println("\n=== Table II (datasets; ours at bench scale vs paper) ===")
    println(table)
    TableFormat.save("table2_datasets.txt", table)

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

  test("Tables III–V: runtimes, max space, total written") {
    val algos   = BenchHarness.tableAlgos
    val names   = algos.map(_.name)
    val results = sweep.flatMap(_._3)

    val t3 = TableFormat.tableIII(results, names)
    val t4 = TableFormat.spaceTable(results, names, _.maxMb)
    val t5 = TableFormat.spaceTable(results, names, _.writtenMb)
    println("\n=== Table III (runtimes, seconds) ===");       println(t3)
    println("\n=== Table IV (max space, MB @16B/row) ===");   println(t4)
    println("\n=== Table V (total written, MB @16B/row) ==="); println(t5)
    TableFormat.save("table3_runtimes.txt", t3)
    TableFormat.save("table4_maxspace.txt", t4)
    TableFormat.save("table5_written.txt", t5)
    TableFormat.save("tables345_raw.tsv", TableFormat.tsv(results))

    // Integrity: every cell finished correctly or hit the cap; never BAD.
    assert(results.forall(r => r.status == "ok" || r.status == "—"),
      s"wrong labellings: ${results.filter(_.status == "BAD").map(r => (r.dataset, r.algo))}")

    // RC terminates within bounds on *every* input (the paper's core claim).
    val rc = results.filter(_.algo == "RC")
    assert(rc.forall(_.status == "ok"), s"RC failed on ${rc.filterNot(_.status == "ok").map(_.dataset)}")

    // Paths blow past linear space for Hash-to-Min (Table III/IV "—").
    val hmPath = results.find(r => r.algo == "HM" && r.dataset == "Path100M").get
    assert(hmPath.status == "—", "Hash-to-Min should exceed the space cap on the path graph")

    // Two-Phase is the space champion of Table IV: smallest max-space on a
    // strong majority of datasets (ties/off-by-noise tolerated).
    val okByDataset = results.filter(_.status == "ok").groupBy(_.dataset)
    val tpWins = okByDataset.count { case (_, rs) =>
      rs.find(_.algo == "TP").exists(tp => rs.forall(_.maxLiveRows >= tp.maxLiveRows))
    }
    assert(tpWins >= okByDataset.size / 2, s"TP smallest max-space on only $tpWins/${okByDataset.size}")

    // RC writes the least in total on most datasets (Table V's headline).
    val rcWinsWritten = okByDataset.count { case (_, rs) =>
      rs.find(_.algo == "RC").exists(rc0 => rs.forall(_.totalWrittenRows >= rc0.totalWrittenRows))
    }
    println(s"\nRC least-total-written on $rcWinsWritten/${okByDataset.size} datasets " +
      s"(paper: best in most cases, worse on Friendster/RMAT)")

    // Quasi-linear scalability on the Candels series (paper §VII-B): runtime
    // should grow roughly linearly with size, far below quadratically.
    val candels = rc.filter(_.dataset.startsWith("Candels")).sortBy(_.inputRows)
    if (candels.size >= 3) {
      val first = candels.head; val last = candels.last
      val sizeRatio = last.inputRows.toDouble / first.inputRows
      val timeRatio = last.seconds / first.seconds
      println(f"\nRC Candels scaling: size ×$sizeRatio%.1f → time ×$timeRatio%.1f (quasi-linear expected)")
      assert(timeRatio < sizeRatio * sizeRatio, "RC scaling is worse than quadratic")
    }
  }
}
