package repro.graph

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import org.apache.spark.SparkException
import org.apache.spark.sql.AnalysisException
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.command.CreateViewCommand
import org.apache.spark.sql.util.QueryExecutionListener
import repro.SparkSpec
import repro.baselines.{Cracker, HashToMin, TwoPhase}
import repro.core.RandomisedContraction
import repro.datasets.Generators

class SpaceTrackerSpec extends SparkSpec {

  private def edges(rows: Long) = spark.range(rows).selectExpr("id as v", "id as w")
  private def table(t: SpaceTracker, name: String, rows: Long): Table = t.materialize(name, edges(rows))
  private def round(t: SpaceTracker, name: String, rows: Long): Table = t.endRound(name, edges(rows))

  /** The temp views registered while `body` runs, as the session's query
    * listener sees them. Listener events arrive in order, so once a marker
    * view registered after `body` is seen, every view `body` registered was.
    */
  private def viewsRegistered(body: => Unit): Seq[String] = {
    val seen = new LinkedBlockingQueue[String]
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        qe.logical match {
          case c: CreateViewCommand => seen.put(c.name.table)
          case _                    =>
        }
      override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    val marker = "views_registered_marker"
    spark.listenerManager.register(listener)
    try {
      body
      spark.range(1).createOrReplaceTempView(marker)
      Iterator.continually(Option(seen.poll(60, TimeUnit.SECONDS)).getOrElse(fail(s"$marker not seen in 60 s")))
        .takeWhile(_ != marker).toSeq
    } finally {
      spark.listenerManager.unregister(listener)
      spark.catalog.dropTempView(marker)
    }
  }

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

  test("a live table's view names it in spark.sql until the table is dropped") {
    val before = views()
    val t      = new SpaceTracker
    val a      = table(t, "a", 42L)
    val b      = table(t, "b", 7L)
    table(t, "c", 1L) // never named in SQL: registers no view
    val va = t.view(a)
    assert(t.view(a) == va) // registered once
    assert(spark.sql(s"select count(*) from $va").head().getLong(0) == 42L)
    assert(spark.sql(s"select count(*) from ${t.view(b)}").head().getLong(0) == 7L)
    assert((views() -- before).size == 2)
    t.drop(a)
    intercept[AnalysisException](spark.sql(s"select * from $va"))
    assertThrows[IllegalArgumentException](t.view(a)) // no longer live
    assert((views() -- before).size == 1)
    t.dropAll()
    assert(views() == before)
  }

  test("two trackers that each write a table E0 get distinct view names") {
    val (t1, t2) = (new SpaceTracker, new SpaceTracker)
    val (e1, e2) = (table(t1, "E0", 3L), table(t2, "E0", 5L))
    assert(t1.view(e1) != t2.view(e2))
    assert(spark.sql(s"select * from ${t1.view(e1)}").count() == 3L)
    assert(spark.sql(s"select * from ${t2.view(e2)}").count() == 5L)
    t1.dropAll()
    assert(spark.sql(s"select * from ${t2.view(e2)}").count() == 5L)
    t2.dropAll()
  }

  test("a Cracker run on streets 80×45 registers no view; an RC run does") {
    val edges = Generators.streets(spark, 80, 45)
    assert(viewsRegistered(Cracker.run(edges, seed = 1L).tracker.dropAll()).isEmpty)
    assert(viewsRegistered(RandomisedContraction().run(Generators.path(spark, 16), seed = 1L).tracker.dropAll())
      .nonEmpty)
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

  test("endRound records each round's table rows") {
    val t = new SpaceTracker
    table(t, "a", 5L)
    val e1 = round(t, "E1", 10L)
    t.drop(e1)
    round(t, "E2", 4L)
    round(t, "E3", 0L)
    assert(t.roundEdgeRows == Seq(10L, 4L, 0L))
    assert(t.totalWrittenRows == 19L)
    assert(t.maxLiveRows == 15L)
  }

  test("a round table whose write passes the cap counts in written and max-live rows but is not a round") {
    val t = new SpaceTracker(capRows = 100L, algoName = "X")
    round(t, "E1", 60L)
    intercept[BlowUpException](round(t, "E2", 60L))
    assert(t.roundEdgeRows == Seq(60L))
    assert(t.totalWrittenRows == 120L)
    assert(t.maxLiveRows == 120L)
  }

  test("a dropped table's handle neither names nor frees a later table of the same name") {
    val t  = new SpaceTracker
    val a1 = table(t, "a", 3L)
    t.drop(a1)
    val a2 = table(t, "a", 5L)
    assertThrows[IllegalArgumentException](t.drop(a1))
    assertThrows[IllegalArgumentException](t.view(a1))
    assert(t.liveRows == 5L)
    assert(a2.df.count() == 5L)
    assert(spark.sql(s"select count(*) from ${t.view(a2)}").head().getLong(0) == 5L)
    t.dropAll()
  }
}
