package repro.bench

import repro.baselines.{HashToMin, TwoPhase}
import repro.core.RandomisedContraction
import repro.datasets.Generators
import repro.graph.{BlowUpException, SpaceTracker}
import repro.harness.TableFormat

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
  * exceeding RC's (log² vs log) while its space stays linear.
  */
class TableISuite extends BenchBase {

  private val sizes = Seq(4096L, 8192L, 16384L, 32768L)

  test("Table I: empirical round and space complexity") {
    val rows = scala.collection.mutable.ArrayBuffer.empty[Seq[String]]

    // (a) + (b): RC rounds and shrink factor across doubling path sizes.
    val rcRounds = sizes.map { n =>
      val tracker = new SpaceTracker(algoName = "RC")
      val run = RandomisedContraction().run(Generators.path(spark, n), tracker, seed = 5L)
      tracker.dropAll()
      val ratios = tracker.roundEdgeRows.sliding(2).collect {
        case Seq(a, b) if a > 0 => b.toDouble / a
      }.toSeq
      val meanShrink = if (ratios.nonEmpty) ratios.sum / ratios.size else 0.0
      rows += Seq(s"path $n", "RC", run.rounds.toString, f"$meanShrink%.2f",
        f"${tracker.maxLiveRows.toDouble / (n - 1)}%.1f")
      (n, run.rounds, meanShrink)
    }
    // Logarithmic rounds: +1 doubling adds ~constant rounds. Allow noise.
    val increments = rcRounds.sliding(2).map { case Seq((_, r1, _), (_, r2, _)) => r2 - r1 }.toSeq
    assert(increments.forall(_ <= 8), s"RC round growth per doubling too steep: $increments")
    // Theorem 1: expected shrink ≤ 3/4 (edge-count shrink tracks vertex shrink
    // on paths). Mean across rounds and sizes should sit clearly below 0.85.
    val overallShrink = rcRounds.map(_._3).sum / rcRounds.size
    assert(overallShrink < 0.85, f"mean shrink $overallShrink%.2f violates the contraction bound")

    // RMAT: RC rounds stay logarithmic on scale-free graphs too.
    val rmatRounds = Seq(12, 13, 14).map { sc =>
      val run = RandomisedContraction().run(
        Generators.rmat(spark, scale = sc, nEdges = 8L << sc), seed = 6L)
      run.tracker.dropAll()
      rows += Seq(s"rmat 2^$sc", "RC", run.rounds.toString, "", "")
      run.rounds
    }
    assert(rmatRounds.max - rmatRounds.min <= 6, s"RMAT rounds not logarithmic: $rmatRounds")

    // (c) HM peak space on paths is super-linear (blows the 40× cap);
    //     RC stays linear on the same input.
    val n  = 16384L
    val hm = try {
      val t = new SpaceTracker(capRows = (n - 1) * 40L, algoName = "HM")
      HashToMin.run(Generators.path(spark, n), t, seed = 5L)
      "finished (unexpected)"
    } catch { case BlowUpException(_, live, cap) => s"blew cap ($live > $cap rows)" }
    rows += Seq(s"path $n", "HM", "-", "-", hm)
    assert(hm.startsWith("blew cap"), s"HM path space: $hm")

    // (d) TP needs more rounds than RC (log² vs log) at equal linear space.
    val tpT = new SpaceTracker(capRows = (n - 1) * 40L, algoName = "TP")
    val tp  = TwoPhase.run(Generators.path(spark, n), tpT, seed = 5L)
    tpT.dropAll()
    val rcN = rcRounds.find(_._1 == n).get._2
    rows += Seq(s"path $n", "TP", tp.rounds.toString, "", f"${tpT.maxLiveRows.toDouble / (n - 1)}%.1f")
    assert(tp.rounds > rcN, s"TP (${tp.rounds}) should need more steps than RC ($rcN)")

    val table = TableFormat.render(
      Seq("input", "algo", "rounds", "mean shrink", "peak rows / input"), rows.toSeq)
    println("\n=== Table I (empirical complexity check) ===")
    println(table)
    TableFormat.save("table1_complexity.txt", table)
  }
}
