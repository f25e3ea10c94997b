package repro.graph

import repro.SparkSpec

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

  test("recordRound accumulates the shrink telemetry") {
    val t = new SpaceTracker
    t.recordRound(10L); t.recordRound(4L); t.recordRound(0L)
    assert(t.roundEdgeRows == Seq(10L, 4L, 0L))
  }
}
