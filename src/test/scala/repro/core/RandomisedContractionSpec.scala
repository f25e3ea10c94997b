package repro.core

import org.apache.spark.metrics.source.CodegenMetrics
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import repro.SparkSpec
import repro.gf.ModP
import repro.graph.{BlowUpException, LocalUnionFind, SpaceTracker}
import repro.testutil.Graphs

/** Correctness of Randomised Contraction across the full configuration
  * matrix: {Fig. 3 deterministic, Fig. 4 fast} × {GF(2^64), GF(p),
  * encryption, random reals}, on every zoo graph (loops, duplicates,
  * adversarial numbering, multi-component, extreme IDs) and on random
  * G(n,p) graphs — always compared against union-find as a partition.
  */
class RandomisedContractionSpec extends SparkSpec {

  private val variants: Seq[(String, Variant)] =
    Seq("fast (Fig. 4)" -> Variant.Fast, "deterministic (Fig. 3)" -> Variant.Deterministic)

  // Fast requires an affine method (the (A,B) accumulator); GF(p) needs IDs in [0, p).
  private val configs: Seq[(String, Randomisation, Variant, Boolean)] = Seq(
    ("gf64/fast",     FiniteField64,    Variant.Fast,          false),
    ("gf64/det",      FiniteField64,    Variant.Deterministic, false),
    ("modp/fast",     FinitePrimeField, Variant.Fast,          true),
    ("modp/det",      FinitePrimeField, Variant.Deterministic, true),
    ("xtea/det",      Encryption,       Variant.Deterministic, false),
    ("randreals/det", RandomReals,      Variant.Deterministic, false),
  )

  /** The rejected run fails with GF(p)'s domain error and leaves no table cached. */
  private def assertRejectsOutsideGfp(run: => Any): Unit = {
    val before = cachedRdds()
    val e      = intercept[Exception](run)
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .exists(c => String.valueOf(c.getMessage).contains("outside [0, 2147483647) of GF(p)")), e)
    assert(cachedRdds() -- before == Set.empty)
  }

  for ((cfgName, method, variant, needsSmallIds) <- configs; g <- Graphs.zoo) {
    if (!needsSmallIds || Graphs.inGfp(g.edges)) {
      test(s"$cfgName labels ${g.name} correctly") {
        val run = RandomisedContraction(method, variant).run(Graphs.toDf(spark, g.edges), seed = 5L)
        Graphs.assertPartition(run.labels, g.edges)
      }
    } else {
      test(s"$cfgName rejects ${g.name} (IDs outside [0, 2^31-1))") {
        assertRejectsOutsideGfp {
          RandomisedContraction(method, variant).run(Graphs.toDf(spark, g.edges), seed = 5L)
        }
      }
    }
  }

  // Random graphs of up to 12 vertices. Half draw every ID from GF(p)'s
  // domain [0, p); the other half from the 64-bit extremes around it.
  private val inGfp: Gen[Long] =
    Gen.frequency(1 -> Gen.oneOf(0L, ModP.P - 1), 2 -> Gen.chooseNum(0L, ModP.P - 1))
  private val anyId: Gen[Long] =
    Gen.frequency(1 -> Gen.oneOf(Long.MinValue, -1L, 0L, ModP.P - 1, ModP.P, Long.MaxValue), 1 -> Gen.long)
  private val extremeIdGraph: Gen[Seq[(Long, Long)]] = for {
    small <- Gen.prob(0.5)
    n     <- Gen.choose(1, 12)
    pool  <- Gen.containerOfN[Set, Long](n, if (small) inGfp else anyId).map(_.toIndexedSeq)
    m     <- Gen.choose(1, 2 * pool.size)
    edges <- Gen.listOfN(m, Gen.zip(Gen.oneOf(pool), Gen.oneOf(pool)))
  } yield edges

  for ((cfgName, method, variant, needsSmallIds) <- configs) {
    test(s"$cfgName: random graphs with extreme IDs, as a partition or rejected (ScalaCheck)") {
      val prop = Prop.forAllNoShrink(extremeIdGraph, Gen.long) { (edges, seed) =>
        def run() = RandomisedContraction(method, variant).run(Graphs.toDf(spark, edges), seed = seed)
        if (needsSmallIds && !Graphs.inGfp(edges))
          assertRejectsOutsideGfp(run())
        else Graphs.assertPartition(run().labels, edges)
        true
      }
      val params = Test.Parameters.default.withMinSuccessfulTests(8).withInitialSeed(Seed(2020L))
      val result = Test.check(params, prop)
      assert(result.passed, Pretty.pretty(result))
    }
  }

  for ((vName, variant) <- variants) {
    test(s"$vName handles the empty graph") {
      val run = RandomisedContraction(FiniteField64, variant)
        .run(Graphs.toDf(spark, Seq.empty), seed = 1L)
      assert(run.labels.count() == 0L)
      assert(run.rounds == 0)
    }

    test(s"$vName on random G(60, 0.05) graphs across seeds") {
      for (seed <- 1 to 3) {
        val edges = Graphs.randomGnp(60, 0.05, seed)
        val run   = RandomisedContraction(FiniteField64, variant)
          .run(Graphs.toDf(spark, edges), seed = seed * 31L)
        Graphs.assertPartition(run.labels, edges)
      }
    }
  }

  test("fast variant rejects non-affine methods") {
    assertThrows[IllegalArgumentException] {
      RandomisedContraction(Encryption, Variant.Fast)
        .run(Graphs.toDf(spark, Seq((1L, 2L))), seed = 1L)
    }
    assertThrows[IllegalArgumentException] {
      RandomisedContraction(RandomReals, Variant.Fast)
        .run(Graphs.toDf(spark, Seq((1L, 2L))), seed = 1L)
    }
  }

  test("constructing the fast variant with a non-affine method throws, before any run") {
    for (method <- Seq(Encryption, RandomReals)) {
      val e = intercept[IllegalArgumentException](RandomisedContraction(method, Variant.Fast))
      assert(e.getMessage.contains(s"${method.name} is not"))
    }
  }

  // A round's keys reach the generated code as a BINARY literal, not as Java
  // constants, so a run with another seed reuses every class the first compiled.
  for (rc <- Seq(RandomisedContraction(), RandomisedContraction(FiniteField64, Variant.Deterministic),
                 RandomisedContraction(Encryption, Variant.Deterministic))) {
    test(s"${rc.name}: a second seed compiles no code") {
      val edges = (0L until 63L).map(i => (i, i + 1))
      def label(seed: Long): Int = {
        val run = rc.run(Graphs.toDf(spark, edges), seed = seed)
        Graphs.assertPartition(run.labels, edges)
        run.tracker.dropAll()
        run.rounds
      }
      assert(label(1L) > 1)
      val compiles = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
      assert(label(2L) > 1)
      assert(CodegenMetrics.METRIC_COMPILATION_TIME.getCount - compiles == 0L)
    }
  }

  private def labelMap(run: CcRun): Map[Long, Long] =
    Graphs.pairs(run.labels).toMap

  test("runs are deterministic given the seed") {
    val edges = Graphs.randomGnp(40, 0.08, 9)
    val df    = Graphs.toDf(spark, edges)
    val a     = RandomisedContraction().run(df, seed = 123L)
    val b     = RandomisedContraction().run(df, seed = 123L)
    assert(a.rounds == b.rounds)
    assert(labelMap(a) == labelMap(b))
  }

  test("different seeds generally produce different (but equivalent) labels") {
    val edges = Graphs.randomGnp(40, 0.08, 10)
    val df    = Graphs.toDf(spark, edges)
    val a     = RandomisedContraction().run(df, seed = 1L)
    val b     = RandomisedContraction().run(df, seed = 2L)
    Graphs.assertPartition(a.labels, edges)
    Graphs.assertPartition(b.labels, edges)
    assert(labelMap(a) != labelMap(b))
  }

  test("labels are unique per component (bijective relabelling, §V-D)") {
    val edges = Graphs.zoo.find(_.name == "mixed").get.edges
    val run   = RandomisedContraction().run(Graphs.toDf(spark, edges), seed = 3L)
    assert(Graphs.componentCount(run.labels) == LocalUnionFind.fromEdges(edges).componentCount)
  }

  test("edge table shrinks monotonically to zero across rounds") {
    val edges = Graphs.randomGnp(80, 0.05, 11)
    val run   = RandomisedContraction().run(Graphs.toDf(spark, edges), seed = 4L)
    val sizes = run.tracker.roundEdgeRows
    assert(sizes.nonEmpty)
    assert(sizes.last == 0L)
    assert(sizes.zip(sizes.drop(1)).forall { case (a, b) => b <= a }, sizes)
  }

  test("isolated vertices leave the computation after round 1 (loop-edge input)") {
    // 20/21 form an edge; 99 is isolated via a loop edge.
    val edges = Seq((20L, 21L), (99L, 99L))
    val run   = RandomisedContraction().run(Graphs.toDf(spark, edges), seed = 6L)
    Graphs.assertPartition(run.labels, edges)
    assert(run.labels.count() == 3L) // all three vertices labelled
  }

  test("sequentially numbered path contracts in O(log n) rounds, not n (§V-B)") {
    import spark.implicits._
    val n     = 512L
    val edges = Graphs.pathEdges(0L until n)
    val run   = RandomisedContraction().run(edges.toDF("v", "w"), seed = 8L)
    Graphs.assertPartition(run.labels, edges)
    // BFS/deterministic contraction would need n-1 = 511 rounds; randomised
    // contraction is expected ~log_{4/3}(512) ≈ 22, allow generous slack.
    assert(run.rounds < 60, s"took ${run.rounds} rounds on a 512-path")
  }

  test("every temp view of a run is dropped: normal, empty and blown-up runs") {
    val edges = Graphs.randomGnp(40, 0.08, 12)
    for (variant <- Seq(Variant.Fast, Variant.Deterministic)) {
      val before = views()
      val rc     = RandomisedContraction(FiniteField64, variant)
      Graphs.assertPartition(rc.run(Graphs.toDf(spark, edges), seed = 1L).labels, edges)
      assert(views() == before)
      assert(rc.run(Graphs.toDf(spark, Seq.empty), seed = 1L).labels.count() == 0L)
      assert(views() == before)
      // E0 (both orientations) and R1 (one row per vertex) fit under the cap; E1 does not.
      val tracker = new SpaceTracker(capRows = 2L * edges.size + 40L)
      assertThrows[BlowUpException](rc.run(Graphs.toDf(spark, edges), tracker, seed = 1L))
      assert(tracker.totalWrittenRows > 2L * edges.size + 40L)
      assert(views() == before)
    }
  }

  test("runs on a new session, which starts without the repro functions") {
    val session = spark.newSession()
    session.conf.set("spark.sql.shuffle.partitions", "4")
    val edges   = Graphs.zoo.find(_.name == "mixed").get.edges
    for (method <- Seq(FiniteField64, Encryption)) {
      val run = RandomisedContraction(method, Variant.Deterministic).run(Graphs.toDf(session, edges), seed = 2L)
      Graphs.assertPartition(run.labels, edges)
    }
  }
}
