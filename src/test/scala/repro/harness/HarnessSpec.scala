package repro.harness

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.baselines.HashToMin
import repro.core.{CcAlgorithm, CcRun, RandomisedContraction}
import repro.datasets.{BenchDataset, Generators}
import repro.graph.SpaceTracker

class HarnessSpec extends SparkSpec {

  private def tinyRmat = BenchDataset("tiny-rmat",
    sp => Generators.rmat(sp, scale = 8, nEdges = 600),
    "-", "-", "-")

  private def tinyPath = BenchDataset("tiny-path",
    sp => Generators.path(sp, 2500),
    "-", "-", "-")

  test("prepare computes exact dataset statistics") {
    val stats = BenchHarness.prepare(spark, tinyPath.build)
    assert(stats.rows == 2499L)
    assert(stats.vertices == 2500L)
    assert(stats.components == 1L)
    assert(stats.componentSizes.values.sum == 2500L)
    stats.tracker.dropAll()
  }

  test("runOne returns ok with positive time, rounds and space for RC") {
    val stats = BenchHarness.prepare(spark, tinyRmat.build)
    val r     = BenchHarness.runOne(stats, "tiny-rmat", RandomisedContraction())
    assert(r.status == "ok")
    assert(r.seconds > 0)
    assert(r.rounds >= 1)
    assert(r.maxLiveRows >= r.inputRows) // at least the doubled setup table
    assert(r.totalWrittenRows >= r.maxLiveRows)
    assert(r.roundEdgeRows.last == 0L, r.roundEdgeRows)
    val run = RandomisedContraction().run(stats.edges, seed = 42L)
    assert(r.rounds == run.rounds)
    run.tracker.dropAll()
    stats.tracker.dropAll()
  }

  test("runOne reports '—' when the algorithm hits the space cap (HM on a path)") {
    val stats = BenchHarness.prepare(spark, tinyPath.build)
    val r     = BenchHarness.runOne(stats, "tiny-path", HashToMin)
    assert(r.status == "—", s"expected blow-up, got ${r.status} with max=${r.maxLiveRows}")
    assert(r.maxLiveRows > BenchHarness.capRows(r.inputRows)) // the peak that blew the cap
    stats.tracker.dropAll()
  }

  test("runOne reports BAD for a wrong partition with the right vertex and component counts") {
    import spark.implicits._
    val stats = BenchHarness.prepare(spark, _ => Seq((1L, 2L), (3L, 4L)).toDF("v", "w"))
    val wrong = new CcAlgorithm {
      val name = "wrong"
      def run(edges: DataFrame, tracker: SpaceTracker, seed: Long): CcRun = // {1, 3} and {2, 4}
        CcRun(Seq((1L, 1L), (3L, 1L), (2L, 2L), (4L, 2L)).toDF("v", "r"), tracker)
    }
    assert((stats.vertices, stats.components) == (4L, 2L))
    assert(BenchHarness.runOne(stats, "two-edges", wrong).status == "BAD")
    stats.tracker.dropAll()
  }

  test("sweep covers all dataset × algorithm cells") {
    val before = cachedRdds()
    val sweep  = BenchHarness.sweep(spark, Seq(tinyRmat),
      Seq(RandomisedContraction(), repro.baselines.TwoPhase))
    val res    = sweep.flatMap(_._3)
    assert(res.map(r => (r.dataset, r.algo)).toSet ==
      Set(("tiny-rmat", "RC"), ("tiny-rmat", "TP")))
    assert(res.forall(_.status == "ok"))
    assert(cachedRdds() -- before == Set.empty) // edge table, results and labels all freed
    // Each dataset's statistics outlive its edge table and equal a fresh preparation's.
    assert(sweep.map(_._1.name) == Seq("tiny-rmat"))
    for ((d, stats, _) <- sweep) {
      val fresh = BenchHarness.prepare(spark, d.build)
      assert((stats.rows, stats.vertices, stats.components) == (fresh.rows, fresh.vertices, fresh.components))
      fresh.tracker.dropAll()
    }
  }

  test("capRows scales with input but has a floor") {
    assert(BenchHarness.capRows(10L) == 2_000_000L)
    assert(BenchHarness.capRows(1_000_000L) == 40_000_000L)
  }

  test("table renderers produce one row per dataset and a '—' cell for DNFs") {
    val rs = Seq(
      BenchResult("d1", "RC", 1.5, 100, 400, 900, Seq(90, 30, 8, 0), "ok"),
      BenchResult("d1", "HM", 2.0, 100, 4000, 9000, Seq(200, 800, 3000), "—"),
      BenchResult("d2", "RC", 0.5, 50, 200, 450, Seq(20, 0), "ok"),
      BenchResult("d2", "HM", 0.7, 50, 210, 500, Seq(100, 100), "ok"))
    val t3 = TableFormat.tableIII(rs, Seq("RC", "HM"))
    assert(t3.linesIterator.size == 4) // header + separator + 2 rows
    assert(t3.contains("—"))
    assert(t3.contains("1.5"))
    val t4 = TableFormat.spaceTable(rs, Seq("RC", "HM"), _.maxMb)
    assert(t4.contains("input MB"))
    val t5 = TableFormat.spaceTable(rs, Seq("RC", "HM"), _.writtenMb)
    assert(t5.contains("0.0")) // 450 rows * 16B = 0.0072 MB
    val tsv = TableFormat.tsv(rs)
    assert(tsv.linesIterator.size == 5)
  }

  test("MB conversions use 16 bytes per row") {
    val r = BenchResult("d", "RC", 1.0, 1_000_000L, 2_000_000L, 3_000_000L, Seq(0L), "ok")
    assert(math.abs(r.inputMb - 16.0) < 1e-9)
    assert(math.abs(r.maxMb - 32.0) < 1e-9)
    assert(math.abs(r.writtenMb - 48.0) < 1e-9)
  }
}
