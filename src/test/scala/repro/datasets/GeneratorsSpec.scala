package repro.datasets

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.bitcoin.BitcoinSynth
import repro.graph.{GraphOps, LocalUnionFind}
import repro.testutil.Graphs

class GeneratorsSpec extends SparkSpec {

  test("path(n) has n-1 sequential edges and one component") {
    val e = Graphs.pairs(Generators.path(spark, 100))
    assert(e.size == 99)
    assert(e == (0L until 99L).map(i => (i, i + 1)))
    assert(LocalUnionFind.fromEdges(e).componentCount == 1)
  }

  test("path rejects n < 2") {
    assertThrows[IllegalArgumentException](Generators.path(spark, 1))
  }

  test("pathUnion(k) has exactly k components with doubling lengths") {
    val e  = Graphs.pairs(Generators.pathUnion(spark, k = 4, baseLen = 4))
    val uf = LocalUnionFind.fromEdges(e)
    assert(uf.componentCount == 4)
    assert(uf.componentSizes.values.toSeq.sorted == Seq(4L, 8L, 16L, 32L))
    // Disjoint vertex ranges: edge count = total vertices - k.
    assert(e.size == (4 + 8 + 16 + 32) - 4)
  }

  test("rmat is deterministic in the seed") {
    val a = Graphs.pairs(Generators.rmat(spark, scale = 8, nEdges = 500, seed = 42))
    val b = Graphs.pairs(Generators.rmat(spark, scale = 8, nEdges = 500, seed = 42))
    assert(a.sorted == b.sorted)
    val c = Graphs.pairs(Generators.rmat(spark, scale = 8, nEdges = 500, seed = 43))
    assert(a.sorted != c.sorted)
  }

  test("rmat produces no loops and at most nEdges edges") {
    val e = Graphs.pairs(Generators.rmat(spark, scale = 10, nEdges = 2000))
    assert(e.size <= 2000)
    assert(e.size > 1000) // duplicates exist but must not dominate at this density
    assert(e.forall { case (v, w) => v != w })
  }

  test("rmat skew: top-degree vertex well above the mean (power-law-ish)") {
    val e   = Graphs.pairs(Generators.rmat(spark, scale = 10, nEdges = 4000))
    val deg = e.flatMap { case (v, w) => Seq(v, w) }.groupBy(identity).map(_._2.size)
    val mean = deg.sum.toDouble / deg.size
    assert(deg.max > mean * 5, s"max degree ${deg.max} vs mean $mean — not skewed")
  }

  test("rmat rejects invalid quadrant probabilities") {
    assertThrows[IllegalArgumentException](
      Generators.rmat(spark, scale = 4, nEdges = 10, a = 0.9, b = 0.2, c = 0.2))
  }

  test("streets is low-degree (max 4) with |E| ≈ |V|") {
    val df  = Generators.streets(spark, 40, 30)
    val e   = Graphs.pairs(df)
    val deg = e.flatMap { case (v, w) => Seq(v, w) }.groupBy(identity).map(_._2.size)
    assert(deg.max <= 4)
    val nV = e.flatMap { case (v, w) => Seq(v, w) }.distinct.size
    assert(e.size.toDouble / nV > 0.7 && e.size.toDouble / nV < 1.6)
  }

  test("streets is deterministic") {
    val a = Graphs.pairs(Generators.streets(spark, 20, 20))
    val b = Graphs.pairs(Generators.streets(spark, 20, 20))
    assert(a.sorted == b.sorted)
  }

  test("rand-drawn graphs do not depend on the session's default parallelism") {
    val graphs: Seq[(String, () => DataFrame)] = Seq(
      "streets" -> (() => Generators.streets(spark, 80, 45)),
      "rmat"    -> (() => Generators.rmat(spark, scale = 8, nEdges = 2000)),
      "bitcoin" -> (() => BitcoinSynth.addressGraph(BitcoinSynth.chain(spark, nTx = 2000, nAddr = 500))))
    val unset = graphs.map { case (_, g) => Graphs.pairs(g()).sorted }
    val key   = "spark.sql.leafNodeDefaultParallelism"
    try {
      for (parallelism <- Seq(2L, 6L); ((name, g), want) <- graphs.zip(unset)) {
        spark.conf.set(key, parallelism)
        val got  = Graphs.pairs(g()).sorted
        val same = got == want // not in the assert: the message would print both edge lists
        assert(same, s"$name: ${got.size} rows at parallelism $parallelism, ${want.size} unset")
      }
    } finally spark.conf.unset(key)
  }

  test("social graph has a giant component (Friendster analogue)") {
    val e  = Graphs.pairs(Generators.social(spark, scale = 10, nEdges = 4000))
    val uf = LocalUnionFind.fromEdges(e)
    val maxComp = uf.componentSizes.values.max
    assert(maxComp.toDouble / uf.verticesSeen.size > 0.5, "no giant component")
  }

  test("DatasetCatalog datasets build and are non-trivial at tiny scale") {
    for (d <- DatasetCatalog.all.take(2)) { // Andromeda + Bitcoin addresses
      val e = GraphOps.asEdges(d.build(spark))
      assert(e.limit(1).count() == 1L, s"${d.name} generated no edges")
    }
  }
}
