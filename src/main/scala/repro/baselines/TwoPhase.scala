package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{CcAlgorithm, CcRun, Rounds}
import repro.graph.{GraphOps, SpaceTracker}

/** Two-Phase / alternating star algorithm [Kiveris et al., SoCC 2014] —
  * the linear-space comparator in the paper (best space, O(log² |V|) rounds).
  *
  * Alternates two local "hooking" operations until fixpoint:
  *
  *  - Large-Star: every node u connects its *larger* neighbours to
  *    m = min(N[u]);
  *  - Small-Star: every node u connects its *smaller-or-equal* neighbours
  *    (and itself) to m = min(N[u]).
  *
  * At the fixpoint the edge set is a union of stars whose centres are the
  * component minima. Each star operation is one aggregate + one join — the
  * same direct MapReduce→SQL translation the paper used (§VII).
  */
case object TwoPhase extends CcAlgorithm {
  override val name = "TP"

  private def largeStar(e: DataFrame): DataFrame = {
    val b = GraphOps.undirect(e)
    val m = b.groupBy(col("v")).agg(least(col("v"), min(col("w"))).as("m"))
    b.join(m, "v").where(col("w") > col("v"))
      .select(col("w").as("v"), col("m").as("w"))
      .distinct()
  }

  private def smallStar(e: DataFrame): DataFrame = {
    // Orient every edge large→small so each node aggregates its smaller neighbours.
    val d = e.select(greatest(col("v"), col("w")).as("v"), least(col("v"), col("w")).as("w"))
    val m = d.groupBy(col("v")).agg(min(col("w")).as("m"))
    val leaves = d.join(m, "v").where(col("w") =!= col("m"))
      .select(col("w").as("v"), col("m").as("w"))
    val self = m.select(col("v"), col("m").as("w"))
    leaves.union(self).distinct()
  }

  override def run(edges: DataFrame, tracker: SpaceTracker, seed: Long): CcRun = {
    val raw   = GraphOps.asEdges(edges)
    val verts = GraphOps.vertices(raw)
    var e     = tracker.materialize("E0", GraphOps.canonical(raw))
    // One step is two rounds, a large-star and a small-star; its tables are
    // numbered by the round it starts at.
    Rounds(name)(e.rows != 0L) { step =>
      val ls = tracker.endRound(s"L${2 * step - 2}", largeStar(e.df))
      val ss = tracker.endRound(s"S${2 * step - 2}", smallStar(ls.df))
      tracker.drop(ls)
      val unchanged = ss.sameRows(e)
      tracker.drop(e)
      e = ss
      !unchanged
    }
    // Fixpoint edges are (leaf, centre) stars; every non-centre has one parent.
    val parents = e.df.groupBy(col("v")).agg(min(col("w")).as("r"))
    CcRun(GraphOps.labelOrSelf(verts, parents), tracker)
  }
}
