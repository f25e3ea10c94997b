package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{HashToMin, TwoPhase}
import repro.core.{CcAlgorithm, RandomisedContraction}
import repro.datasets.Generators
import repro.harness.{BenchHarness, BenchResult, TableFormat}

/** Table I — the complexity summary, validated empirically:
  *
  *   Randomised Contraction : exp O(log V) steps, exp O(E) space
  *   Hash-to-Min            : O(log V) steps,     O(V²) space
  *   Two-Phase              : O(log² V) steps,    O(E) space
  *
  * We measure (a) RC rounds growing by ~constant per size doubling — i.e.
  * logarithmic — on both adversarial paths and R-MAT graphs, (b) the per-round
  * shrink factor γ staying below Theorem 1's 3/4 bound on average, (c) HM's
  * super-linear peak space on paths vs RC's linear peak, and (d) TP's rounds
  * exceeding RC's (log² vs log) while its space stays linear. Every cell is
  * measured and checked as in Tables III–V, under the harness's space cap.
  */
class TableISuite extends BenchBase {

  private val sizes = Seq(4096L, 8192L, 16384L, 32768L)

  /** `algo` on `build`'s graph: one harness cell, its edge table freed after. */
  private def cell(dataset: String, build: SparkSession => DataFrame, algo: CcAlgorithm, seed: Long): BenchResult = {
    val stats  = BenchHarness.prepare(spark, build)
    val result = BenchHarness.runOne(stats, dataset, algo, seed)
    stats.tracker.dropAll()
    result
  }

  /** Mean ratio of edge rows between consecutive rounds (γ of Theorem 1),
    * over the rounds that left edges behind.
    */
  private def meanShrink(r: BenchResult): Double = {
    val rows   = r.roundEdgeRows
    val ratios = rows.zip(rows.drop(1)).collect { case (a, b) if a > 0 && b > 0 => b.toDouble / a }
    if (ratios.isEmpty) Double.NaN else ratios.sum / ratios.size
  }

  test("Table I: empirical round and space complexity") {
    val n    = 16384L
    val rc   = sizes.map(m => cell(s"path $m", Generators.path(_, m), RandomisedContraction(), seed = 5L))
    val rmat = Seq(12, 13, 14).map(sc =>
      cell(s"rmat 2^$sc", Generators.rmat(_, scale = sc, nEdges = 8L << sc), RandomisedContraction(), seed = 6L))
    val hm   = cell(s"path $n", Generators.path(_, n), HashToMin, seed = 5L)
    val tp   = cell(s"path $n", Generators.path(_, n), TwoPhase, seed = 5L)

    val table = TableFormat.render(
      Seq("input", "algo", "rounds", "mean shrink", "peak rows / input"),
      (rc ++ rmat ++ Seq(hm, tp)).map(r => Seq(r.dataset, r.algo,
        if (r.status == "ok") r.rounds.toString else r.status,
        if (r.algo == "RC") f"${meanShrink(r)}%.2f" else "",
        f"${r.maxLiveRows.toDouble / r.inputRows}%.1f")))
    println("\n=== Table I (empirical complexity check) ===")
    println(table)
    TableFormat.save("table1_complexity.txt", table)

    val finished = rc ++ rmat :+ tp
    assert(finished.forall(_.status == "ok"), s"runs not ok: ${finished.map(r => (r.dataset, r.algo, r.status))}")

    // (a) + (b): RC rounds and shrink factor across doubling path sizes.
    // Logarithmic rounds: +1 doubling adds ~constant rounds. Allow noise.
    val increments = rc.map(_.rounds).sliding(2).map { case Seq(r1, r2) => r2 - r1 }.toSeq
    assert(increments.forall(_ <= 8), s"RC round growth per doubling too steep: $increments")
    // Theorem 1: expected shrink ≤ 3/4 (edge-count shrink tracks vertex shrink
    // on paths). Mean across rounds and sizes should sit clearly below 0.85.
    val overallShrink = rc.map(meanShrink).sum / rc.size
    assert(overallShrink < 0.85, f"mean shrink $overallShrink%.2f violates the contraction bound")

    // RMAT: RC rounds stay logarithmic on scale-free graphs too.
    val rmatRounds = rmat.map(_.rounds)
    assert(rmatRounds.max - rmatRounds.min <= 6, s"RMAT rounds not logarithmic: $rmatRounds")

    // (c) HM peak space on paths is super-linear (blows the harness cap);
    //     RC stays linear on the same input.
    assert(hm.status == "—", s"HM path space: ${hm.status}, peak ${hm.maxLiveRows} rows")

    // (d) TP needs more rounds than RC (log² vs log) at equal linear space.
    val rcN = rc(sizes.indexOf(n)).rounds
    assert(tp.rounds > rcN, s"TP (${tp.rounds}) should need more steps than RC ($rcN)")
  }
}
