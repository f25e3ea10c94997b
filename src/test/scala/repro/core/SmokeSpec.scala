package repro.core

import repro.SparkSpec
import repro.graph.GraphOps
import repro.testutil.Graphs

/** Fast end-to-end sanity check of the Catalyst plumbing (function registry,
  * grouping-key-in-aggregate, self-join disambiguation) on a tiny graph.
  */
class SmokeSpec extends SparkSpec {
  test("RC fast/gf64 labels a two-component graph correctly") {
    import spark.implicits._
    // Components: {1,2,3,4} (path) and {10,11} — plus isolated 20 via loop.
    val edges = Seq((1L, 2L), (2L, 3L), (3L, 4L), (10L, 11L), (20L, 20L)).toDF("v", "w")
    val run   = RandomisedContraction(FiniteField64, Variant.Fast).run(edges, seed = 7L)
    val norm  = Graphs.pairs(GraphOps.normalizeLabels(run.labels)).toMap
    assert(norm == Map(1L -> 1L, 2L -> 1L, 3L -> 1L, 4L -> 1L, 10L -> 10L, 11L -> 10L, 20L -> 20L))
    assert(run.rounds >= 1)
  }
}
