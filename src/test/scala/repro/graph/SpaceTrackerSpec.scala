package repro.graph

import org.apache.spark.SparkException
import repro.SparkSpec
import repro.baselines.{Cracker, HashToMin, TwoPhase}
import repro.core.RandomisedContraction
import repro.datasets.Generators

class SpaceTrackerSpec extends SparkSpec {

  private def table(t: SpaceTracker, name: String, rows: Long): Table =
    t.materialize(name, spark.range(rows).selectExpr("id as v", "id as w"))

  test("create/drop tracks live and written rows like CREATE/DROP TABLE") {
    val t = new SpaceTracker
    val a = table(t, "a", 100L)
    table(t, "b", 50L)
    assert(t.liveRows == 150L)
    assert(t.maxLiveRows == 150L)
    t.drop(a)
    assert(t.liveRows == 50L)
    assert(t.maxLiveRows == 150L) // the peak is remembered
    table(t, "c", 10L)
    assert(t.totalWrittenRows == 160L) // drops never reduce total written
    assertThrows[IllegalArgumentException](t.drop(a))          // no longer live
    assertThrows[IllegalArgumentException](table(t, "b", 1L))  // already live
  }

  test("cap violation throws BlowUpException") {
    val t = new SpaceTracker(capRows = 100L, algoName = "X")
    table(t, "a", 60L)
    val ex = intercept[BlowUpException](table(t, "b", 60L))
    assert(ex.algo == "X")
    assert(ex.liveRows == 120L)
  }

  test("materialize counts the DataFrame and truncates lineage") {
    val t = new SpaceTracker
    val e = table(t, "e", 42L)
    assert(e.name == "e")
    assert(e.rows == 42L)
    assert(e.df.count() == 42L)
    assert(t.liveRows == 42L)
  }

  test("a dropped table is freed: reading it fails instead of recomputing it") {
    val t      = new SpaceTracker
    val df     = spark.range(42L).selectExpr("id as v", "id as w")
    val before = cachedRdds()
    val a      = t.materialize("a", df)
    assert((cachedRdds() -- before).size == 1)
    t.drop(a)
    assert(cachedRdds() -- before == Set.empty)
    intercept[SparkException](a.df.count())
    // The same DataFrame written again is a new table.
    assert(t.materialize("b", df).df.count() == 42L)
  }

  test("a write whose query throws frees every live table and its own partial checkpoint") {
    val t      = new SpaceTracker
    val before = cachedRdds()
    table(t, "a", 10L)
    // Partitions 0–2 are checkpointed; the last row of partition 3 fails.
    val failing = spark.range(0, 100, 1, 4).selectExpr("id as v", "if(id = 99, raise_error('boom'), id) as w")
    val ex      = intercept[Exception](t.materialize("b", failing))
    assert(Iterator.iterate[Throwable](ex)(_.getCause).takeWhile(_ != null)
      .exists(c => String.valueOf(c.getMessage).contains("boom")), ex)
    assert(cachedRdds() -- before == Set.empty)
    assert(t.liveRows == 0L)
    assert(t.totalWrittenRows == 10L)
  }

  // Every table but the one the labels are read from is dropped by the end
  // of a run, so that table is all Spark still holds until the caller frees it.
  for (algo <- Seq(RandomisedContraction(), HashToMin, TwoPhase, Cracker)) {
    test(s"after ${algo.name} on streets 80×45 Spark holds only the result table") {
      val edges  = Generators.streets(spark, 80, 45)
      val before = cachedRdds()
      val run    = algo.run(edges, seed = 1L)
      assert(run.labels.count() > 0L)
      assert((cachedRdds() -- before).size == 1)
      run.tracker.dropAll()
      assert(cachedRdds() -- before == Set.empty)
    }
  }

  test("a run that blows the space cap leaves no table cached") {
    val path    = Generators.path(spark, 256)
    val before  = cachedRdds()
    val tracker = new SpaceTracker(capRows = 255L * 10L, algoName = "HM")
    val ex      = intercept[BlowUpException](HashToMin.run(path, tracker, seed = 1L))
    assert(ex.liveRows > tracker.capRows)
    assert(tracker.maxLiveRows == ex.liveRows)
    assert(cachedRdds() -- before == Set.empty)
  }

  test("recordRound accumulates the shrink telemetry") {
    val t = new SpaceTracker
    t.recordRound(10L); t.recordRound(4L); t.recordRound(0L)
    assert(t.roundEdgeRows == Seq(10L, 4L, 0L))
  }
}
