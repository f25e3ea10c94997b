package repro.bench

import repro.harness.{BenchHarness, TableFormat}

/** Tables III, IV and V — one sweep of {RC, HM, TP, CR} over all twelve
  * datasets produces all three tables (runtime, max space, total written),
  * exactly as one database run did in the paper.
  */
class TablesIIIToVSuite extends BenchBase {

  test("Tables III–V: runtimes, max space, total written") {
    val algos   = BenchHarness.tableAlgos
    val names   = algos.map(_.name)
    val results = BenchHarness.sweep(spark)

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
