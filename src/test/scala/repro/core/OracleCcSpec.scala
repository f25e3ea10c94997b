package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}
import repro.baselines.{Cracker, HashToMin, TwoPhase}
import repro.graph.GraphOps
import repro.testutil.Graphs

/** Cross-engine correctness: the normalised Spark labelling must equal the
  * connected components DuckDB computes independently with a recursive-CTE
  * min-label propagation over the same edge table.
  */
class OracleCcSpec extends SparkSpec {

  /** DuckDB-side CC: min reachable vertex ID per vertex, via recursive CTE. */
  private val duckCcSql =
    """WITH RECURSIVE
      |e AS (SELECT CAST(v AS BIGINT) AS v, CAST(w AS BIGINT) AS w FROM edges
      |      UNION SELECT CAST(w AS BIGINT), CAST(v AS BIGINT) FROM edges),
      |verts AS (SELECT v FROM e UNION SELECT w AS v FROM e),
      |cc(v, r) AS (
      |  SELECT v, v FROM verts
      |  UNION
      |  SELECT e.v, cc.r FROM e JOIN cc ON cc.v = e.w
      |)
      |SELECT v, MIN(r) AS rep FROM cc GROUP BY v""".stripMargin

  private def checkAgainstDuck(labels: DataFrame, edges: DataFrame): Unit =
    Oracle.assertEquivalent(GraphOps.normalizeLabels(labels), duckCcSql, "edges" -> edges)

  private val oracleGraphs =
    Seq("path10-shuffled", "mixed", "barbell", "two-loops", "grid3x4", "complete6")

  for (name <- oracleGraphs) {
    val g = Graphs.zoo.find(_.name == name).get
    test(s"RC fast/gf64 matches DuckDB recursive-CTE CC on $name") {
      val edges = Graphs.toDf(spark, g.edges)
      checkAgainstDuck(RandomisedContraction().run(edges, seed = 17L).labels, edges)
    }
  }

  test("all algorithms agree with DuckDB on a random graph") {
    val edges = Graphs.toDf(spark, Graphs.randomGnp(40, 0.07, 21))
    for (algo <- Seq(RandomisedContraction(), HashToMin, TwoPhase, Cracker))
      checkAgainstDuck(algo.run(edges, seed = 3L).labels, edges)
  }

  test("TPC-H-lite integration: customer–order graph components match DuckDB") {
    // OLAP-side usage: treat SynthData orders as a bipartite customer↔order
    // graph (order keys offset above the customer key space) and find the
    // entity groups — the same query pattern as the Bitcoin address graph.
    val offset = 10_000_000L
    val orders = SynthData.orders(spark, sf = 0.005)
    val edges  = orders.select(col("o_custkey").as("v"), (col("o_orderkey") + offset).as("w"))
    val run    = RandomisedContraction().run(edges, seed = 29L)
    checkAgainstDuck(run.labels, edges)
    // Bipartite star structure: one component per customer that has orders.
    val nCust = orders.select(col("o_custkey")).distinct().count()
    assert(Graphs.componentCount(run.labels) == nCust)
  }
}
