package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SparkSpec
import repro.core.{CcAlgorithm, RandomisedContraction}
import repro.datasets.Generators
import repro.testutil.Graphs

/** Every baseline must compute the same partition as union-find on the whole
  * zoo and on random graphs — they are the comparators of Tables III–V, so a
  * wrong baseline would invalidate the benchmark — and record each round it
  * runs, as RC does, since a run's rounds are its tracker's round record.
  */
class BaselinesSpec extends SparkSpec {

  private val algos: Seq[CcAlgorithm] = Seq(HashToMin, TwoPhase, Cracker, BfsMinLabel, GraphSquaring)

  for (algo <- algos; g <- Graphs.zoo) {
    test(s"${algo.name} labels ${g.name} correctly") {
      val run = algo.run(Graphs.toDf(spark, g.edges), seed = 5L)
      Graphs.assertPartition(run.labels, g.edges)
    }
  }

  for (algo <- algos) {
    test(s"${algo.name} handles the empty graph") {
      val run = algo.run(Graphs.toDf(spark, Seq.empty), seed = 1L)
      assert(run.labels.count() == 0L)
    }

    test(s"${algo.name} on random G(50, 0.06) graphs") {
      for (seed <- 1 to 2) {
        val edges = Graphs.randomGnp(50, 0.06, seed + 100)
        val run   = algo.run(Graphs.toDf(spark, edges), seed = seed)
        Graphs.assertPartition(run.labels, edges)
        assert(run.rounds >= 1)
      }
    }
  }

  // Known round counts: a loop that skips recording a round, or records one
  // twice, changes them. TP's step is two rounds, its L and its S table.
  private val streets: SparkSession => DataFrame = Generators.streets(_, 80, 45)
  private val knownRounds: Seq[(CcAlgorithm, String, SparkSession => DataFrame, Int)] = Seq(
    (RandomisedContraction(), "streets 80×45", streets, 10),
    (HashToMin, "streets 80×45", streets, 11),
    (TwoPhase, "streets 80×45", streets, 14),
    (Cracker, "streets 80×45", streets, 6),
    (TwoPhase, "a 64-vertex path", Generators.path(_, 64), 14))

  for ((algo, graph, build, rounds) <- knownRounds) {
    test(s"${algo.name} runs $rounds rounds on $graph, one round record entry each") {
      val run = algo.run(build(spark), seed = 1L)
      assert(run.rounds == rounds)
      assert(run.tracker.roundEdgeRows.size == run.rounds)
      run.tracker.dropAll()
    }
  }
}
