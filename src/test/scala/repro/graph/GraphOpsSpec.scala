package repro.graph

import repro.SparkSpec
import repro.testutil.Graphs

class GraphOpsSpec extends SparkSpec {

  private def df(edges: Seq[(Long, Long)]) = Graphs.toDf(spark, edges)

  test("asEdges coerces column names and types") {
    import spark.implicits._
    val e = Seq((1, 2), (3, 4)).toDF("src", "dst")
    val out = GraphOps.asEdges(e)
    assert(out.columns.toSeq == Seq("v", "w"))
    assert(out.schema.fields.forall(_.dataType.typeName == "long"))
  }

  test("asEdges rejects wrong arity") {
    import spark.implicits._
    assertThrows[IllegalArgumentException](GraphOps.asEdges(Seq((1, 2, 3)).toDF("a", "b", "c")))
  }

  test("undirect doubles every row (paper's setup query)") {
    val e = df(Seq((1L, 2L), (3L, 3L)))
    val u = Graphs.pairs(GraphOps.undirect(e))
    assert(u.sorted == Seq((1L, 2L), (2L, 1L), (3L, 3L), (3L, 3L)).sorted)
  }

  test("vertices returns each endpoint once") {
    val vs = GraphOps.vertices(df(Seq((1L, 2L), (2L, 3L), (9L, 9L)))).collect().map(_.getLong(0))
    assert(vs.sorted.toSeq == Seq(1L, 2L, 3L, 9L))
  }

  test("canonical dedups orientations, duplicates and loops") {
    val c = Graphs.pairs(GraphOps.canonical(df(Seq((2L, 1L), (1L, 2L), (1L, 2L), (5L, 5L), (3L, 4L)))))
    assert(c.sorted == Seq((1L, 2L), (3L, 4L)))
  }

  test("normalizeLabels canonicalises arbitrary label values") {
    import spark.implicits._
    // Same partition under two different labelings must normalise identically.
    val l1 = Seq((1L, 100L), (2L, 100L), (3L, -7L)).toDF("v", "r")
    val l2 = Seq((1L, 5L), (2L, 5L), (3L, 999L)).toDF("v", "r")
    val n1 = Graphs.pairs(GraphOps.normalizeLabels(l1)).toSet
    val n2 = Graphs.pairs(GraphOps.normalizeLabels(l2)).toSet
    assert(n1 == n2)
    assert(n1 == Set((1L, 1L), (2L, 1L), (3L, 3L)))
  }

  test("componentCount counts distinct labels") {
    import spark.implicits._
    val l = Seq((1L, 9L), (2L, 9L), (3L, 4L)).toDF("v", "r")
    assert(Graphs.componentCount(l) == 2L)
  }
}
