package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{CcAlgorithm, CcRun, Rounds}
import repro.graph.{GraphOps, SpaceTracker}

/** The second simple attempt of §IV: repeated graph squaring (G², G⁴, …).
  *
  * Squaring reaches radius-2ⁿ neighbourhoods in n self-joins, so only
  * O(log diameter) rounds are needed — but a single-component graph
  * ultimately becomes complete, a Θ(|V|²) blow-up the section rejects.
  * Kept (tests/demonstrations only) to reproduce that argument: once the
  * edge set is stable, each vertex's component minimum is one aggregate away.
  */
case object GraphSquaring extends CcAlgorithm {
  override val name = "SQ"

  /** G ∪ G²: add (x, z) for every path x–y–z, canonicalised. */
  private def square(e: DataFrame): DataFrame = {
    val b   = GraphOps.undirect(e)
    val two = b.select(col("v").as("x"), col("w").as("y"))
      .join(b.select(col("v").as("y2"), col("w").as("z")), col("y") === col("y2"))
      .select(col("x").as("v"), col("z").as("w"))
    GraphOps.canonical(e.union(two))
  }

  override def run(edges: DataFrame, tracker: SpaceTracker, seed: Long): CcRun = {
    val raw   = GraphOps.asEdges(edges)
    val verts = GraphOps.vertices(raw)
    var e     = tracker.materialize("E0", GraphOps.canonical(raw))
    Rounds(name, 100)(e.rows != 0L) { round =>
      val ne = tracker.endRound(s"E$round", square(e.df))
      tracker.drop(e)
      // The edge set only grows under ∪ G²; equal counts ⇒ fixpoint.
      val grew = ne.rows != e.rows
      e = ne
      grew
    }
    // In the transitive closure, min over the closed neighbourhood is the
    // component minimum.
    val m = GraphOps.undirect(e.df).groupBy(col("v")).agg(least(col("v"), min(col("w"))).as("r"))
    CcRun(GraphOps.labelOrSelf(verts, m), tracker)
  }
}
