package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{CcAlgorithm, CcRun, Rounds}
import repro.graph.{GraphOps, SpaceTracker}

/** Hash-to-Min [Rastogi et al., ICDE 2013] — the strongest practical
  * MapReduce CC algorithm of its time, ported here the way the paper ported
  * it to SQL: the per-key "map" emission becomes a projection, the "reduce"
  * a distinct aggregation.
  *
  * State: a cluster table C(v) ⊆ component(v), stored as rows (v, u),
  * initialised to the closed neighbourhood. Per round every vertex v with
  * cluster C and m = min(C):
  *   - sends C to m            (rows (m, u) for u ∈ C), and
  *   - sends {m} to every u ∈ C (rows (u, m)).
  * At fixpoint, C(v) = {v_min} for all non-minimum vertices and
  * C(v_min) = the whole component. O(log |V|) rounds, but worst-case
  * O(|V|^2) space — the blow-up Table III/IV's "—" entries show on paths.
  */
case object HashToMin extends CcAlgorithm {
  override val name = "HM"

  override def run(edges: DataFrame, tracker: SpaceTracker, seed: Long): CcRun = {
    val e     = GraphOps.asEdges(edges)
    val init  = GraphOps.undirect(e)
      .union(GraphOps.vertices(e).select(col("v"), col("v").as("w")))
      .distinct()
      .select(col("v"), col("w").as("u"))
    var c = tracker.materialize("C0", init)
    Rounds(name)(c.rows != 0L) { round =>
      val m  = c.df.groupBy(col("v")).agg(min(col("u")).as("m"))
      val cm = c.df.join(m, "v") // (v, u, m)
      val toMin = cm.select(col("m").as("v"), col("u"))
      val minTo = cm.select(col("u").as("v"), col("m").as("u"))
      val nc    = tracker.endRound(s"C$round", toMin.union(minTo).distinct())
      val fixpoint = nc.sameRows(c)
      tracker.drop(c)
      c = nc
      !fixpoint
    }
    CcRun(c.df.groupBy(col("v")).agg(min(col("u")).as("r")), tracker)
  }
}
