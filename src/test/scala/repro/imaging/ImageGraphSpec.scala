package repro.imaging

import repro.SparkSpec
import repro.graph.LocalUnionFind
import repro.testutil.Graphs

class ImageGraphSpec extends SparkSpec {

  private def degrees(edges: Seq[(Long, Long)]): Map[Long, Int] =
    edges.flatMap { case (v, w) => Seq(v, w) }.groupBy(identity).view.mapValues(_.size).toMap

  test("2D: threshold 255 keeps the full 4-connectivity lattice") {
    val (w, h) = (16L, 9L)
    val e = Graphs.pairs(ImageGraph.image2d(spark, w, h, threshold = 255))
    assert(e.size == ((w - 1) * h + w * (h - 1)))
    // Vertex randomisation is a bijection: all w*h pixels present, distinct.
    val verts = e.flatMap { case (a, b) => Seq(a, b) }.distinct
    assert(verts.size == (w * h))
  }

  test("2D: degree never exceeds 4 (the paper's low-degree property)") {
    val e = Graphs.pairs(ImageGraph.image2d(spark, 24, 24, threshold = 50))
    assert(degrees(e).values.max <= 4)
  }

  test("2D: edges are monotone in the threshold") {
    val lo = Graphs.pairs(ImageGraph.image2d(spark, 24, 24, threshold = 10)).toSet
    val hi = Graphs.pairs(ImageGraph.image2d(spark, 24, 24, threshold = 60)).toSet
    assert(lo.subsetOf(hi), "smaller threshold must be a subgraph")
    assert(lo.size < hi.size)
  }

  test("2D: generation is deterministic") {
    val a = Graphs.pairs(ImageGraph.image2d(spark, 20, 12, threshold = 50))
    val b = Graphs.pairs(ImageGraph.image2d(spark, 20, 12, threshold = 50))
    assert(a.sorted == b.sorted)
  }

  test("2D: the Andromeda threshold yields multiple nontrivial components") {
    val e  = Graphs.pairs(ImageGraph.image2d(spark, 64, 48, threshold = 30))
    val uf = LocalUnionFind.fromEdges(e)
    assert(uf.componentCount > 1, "image should segment into several regions")
    assert(uf.componentSizes.values.max > 10, "should contain sizeable regions")
  }

  test("3D: threshold 255 keeps the full 6-connectivity lattice") {
    val (w, h, f) = (8L, 6L, 5L)
    val e = Graphs.pairs(ImageGraph.video3d(spark, w, h, f, threshold = 255))
    assert(e.size == ((w - 1) * h * f + w * (h - 1) * f + w * h * (f - 1)))
    val verts = e.flatMap { case (a, b) => Seq(a, b) }.distinct
    assert(verts.size == (w * h * f))
  }

  test("3D: degree never exceeds 6") {
    val e = Graphs.pairs(ImageGraph.video3d(spark, 12, 10, 6, threshold = 20))
    if (e.nonEmpty) assert(degrees(e).values.max <= 6)
  }

  test("3D: components span frames (temporal coherence of the noise)") {
    val e  = Graphs.pairs(ImageGraph.video3d(spark, 16, 12, 6, threshold = 20))
    val uf = LocalUnionFind.fromEdges(e)
    // At least one component larger than a single 16x12 frame's pixel count
    // would prove cross-frame structure; demand a quarter of that, robustly.
    assert(uf.componentSizes.values.max > 16 * 12 / 4)
  }

  test("doubling the frame count roughly doubles edges (Candels series)") {
    val e1 = ImageGraph.video3d(spark, 16, 12, 8, threshold = 20).count()
    val e2 = ImageGraph.video3d(spark, 16, 12, 16, threshold = 20).count()
    val ratio = e2.toDouble / e1
    assert(ratio > 1.6 && ratio < 2.5, s"edge growth ratio $ratio not ~2")
  }

  test("randomizeIds applies the same bijection to both columns") {
    import spark.implicits._
    val df  = Seq((1L, 2L), (2L, 3L)).toDF("v", "w")
    val out = Graphs.pairs(ImageGraph.randomizeIds(df, seed = 9L))
    // shared endpoint stays shared, mapped consistently
    assert(out(0)._2 == out(1)._1)
    assert(out(0)._1 != 1L || out(0)._2 != 2L) // actually scrambled
  }
}
