package repro.bench

import repro.baselines.Cracker
import repro.core.RandomisedContraction
import repro.datasets.DatasetCatalog
import repro.harness.{BenchHarness, TableFormat}

/** §VII-C — the "Streets of Italy" comparison.
  *
  * Paper numbers: Cracker's own best case (Streets of Italy) took 1338 s in
  * its published Spark implementation; in-database RC finished in 143 s and
  * the in-database Cracker port in 261 s (RC ≈ 1.8× faster than Cracker on
  * the same engine). Separately, the same RC SQL ran ~2.3× slower in Spark
  * SQL than in HAWQ. We cannot host a second engine, so we reproduce the
  * same-engine claim: RC (which runs as the paper's SQL text) vs the Cracker
  * port on the streets graph (DESIGN.md §4).
  */
class SparkVsDbSuite extends BenchBase {

  test("§VII-C: streets graph — RC vs Cracker") {
    val stats = BenchHarness.prepare(spark, DatasetCatalog.streets)

    val rc = BenchHarness.runOne(stats, "Streets", RandomisedContraction(), seed = 3L)
    val cr = BenchHarness.runOne(stats, "Streets", Cracker, seed = 3L)
    stats.tracker.dropAll()

    val rows = Seq(rc, cr).map(r =>
      Seq(r.algo, r.status, f"${r.seconds}%.1f", r.rounds.toString, f"${r.maxMb}%.1f"))
    val table = TableFormat.render(Seq("algo", "status", "seconds", "rounds", "max MB"), rows)
    println(s"\n=== §VII-C (streets: |V|=${stats.vertices}, |E|=${stats.rows}) ===")
    println(table)
    println("paper: RC in-DB 143 s, Cracker in-DB 261 s, Cracker original Spark 1338 s;")
    println("       RC in Spark SQL ≈ 2.3× RC in-DB (HAWQ optimiser maturity)")
    TableFormat.save("sec7c_streets.txt", table)

    assert(Seq(rc, cr).forall(_.status == "ok"))
    // The shape claim: RC beats the Cracker port on the same engine.
    assert(rc.seconds < cr.seconds,
      f"RC (${rc.seconds}%.1f s) should beat Cracker (${cr.seconds}%.1f s) on streets")
  }
}
