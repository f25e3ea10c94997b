package repro.baselines

import repro.SparkSpec
import repro.core.RandomisedContraction
import repro.graph.{BlowUpException, SpaceTracker}
import repro.testutil.Graphs

/** Reproduces §IV's and §VII's worst-case arguments at test scale:
  * BFS pays the diameter, squaring pays quadratic space, Hash-to-Min blows
  * up on paths, Randomised Contraction does not.
  */
class WorstCaseSpec extends SparkSpec {

  test("BFS takes exactly n-1 rounds on a sequentially numbered path (§IV)") {
    val n     = 40L
    val edges = Graphs.pathEdges(0L until n)
    val run   = BfsMinLabel.run(Graphs.toDf(spark, edges), seed = 1L)
    Graphs.assertPartition(run.labels, edges)
    // n-1 improving rounds plus the final fixpoint-detection round.
    assert(run.rounds == n, s"expected ${n - 1} improving rounds (+1 check), got ${run.rounds}")
  }

  test("BFS rounds equal the graph diameter, regardless of labelling (§V-B)") {
    // Same path, shuffled labels: BFS still pays the diameter.
    val ids   = new scala.util.Random(5).shuffle((0L until 40L).toVector)
    val edges = Graphs.pathEdges(ids)
    val run   = BfsMinLabel.run(Graphs.toDf(spark, edges), seed = 1L)
    assert(run.rounds >= 20, s"expected >= diameter/2 rounds, got ${run.rounds}")
  }

  test("graph squaring reaches the full component in O(log diameter) rounds (§IV)") {
    val n     = 64L
    val edges = Graphs.pathEdges(0L until n)
    val run   = GraphSquaring.run(Graphs.toDf(spark, edges), seed = 1L)
    Graphs.assertPartition(run.labels, edges)
    assert(run.rounds <= 10, s"expected ~log2(64)+1 rounds, got ${run.rounds}")
  }

  test("graph squaring blows up quadratically on a single component (§IV)") {
    val n       = 128L
    val tracker = new SpaceTracker(algoName = "SQ")
    GraphSquaring.run(Graphs.toDf(spark, Graphs.pathEdges(0L until n)), tracker, seed = 1L)
    // The transitive closure of a path has n(n-1)/2 edges ≈ 8128 ≫ n-1 input.
    assert(tracker.maxLiveRows >= n * (n - 1) / 2,
      s"expected quadratic peak, saw ${tracker.maxLiveRows}")
  }

  test("Hash-to-Min exceeds a linear space cap on a sequential path (Table III '—')") {
    val n       = 4096L
    val cap     = (n - 1) * 40L // 40 × input rows: the harness's linear cap without its 2 M-row floor
    val tracker = new SpaceTracker(capRows = cap, algoName = "HM")
    assertThrows[BlowUpException] {
      HashToMin.run(Graphs.toDf(spark, Graphs.pathEdges(0L until n)), tracker, seed = 1L)
    }
  }

  test("Randomised Contraction stays within the same cap on the same path") {
    val n       = 4096L
    val cap     = (n - 1) * 40L
    val tracker = new SpaceTracker(capRows = cap, algoName = "RC")
    val edges   = Graphs.pathEdges(0L until n)
    val run     = RandomisedContraction().run(Graphs.toDf(spark, edges), tracker, seed = 1L)
    Graphs.assertPartition(run.labels, edges)
    assert(tracker.maxLiveRows <= cap)
  }

  test("Two-Phase stays within linear space on the path (Table IV: TP smallest)") {
    val n       = 4096L
    val tracker = new SpaceTracker(capRows = (n - 1) * 40L, algoName = "TP")
    val edges   = Graphs.pathEdges(0L until n)
    val run     = TwoPhase.run(Graphs.toDf(spark, edges), tracker, seed = 1L)
    Graphs.assertPartition(run.labels, edges)
  }
}
