package repro.baselines

import repro.SparkSpec
import repro.core.CcAlgorithm
import repro.testutil.Graphs

/** Every baseline must compute the same partition as union-find on the whole
  * zoo and on random graphs — they are the comparators of Tables III–V, so a
  * wrong baseline would invalidate the benchmark.
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
      }
    }
  }
}
