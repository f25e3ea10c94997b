package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{CcAlgorithm, CcRun, Rounds}
import repro.graph.{GraphOps, SpaceTracker}

/** The "Breadth First Search" strategy of §IV — iterative minimum-label
  * propagation (what Apache MADlib's in-database CC does). Each round every
  * vertex takes the minimum representative over its closed neighbourhood;
  * after n rounds a vertex knows the minimum ID within distance n, so the
  * round count equals the graph diameter: n − 1 on a sequentially numbered
  * path, which is why §IV rules it out for Big Data. Included as the naive
  * comparator and for the worst-case demonstration tests.
  */
case object BfsMinLabel extends CcAlgorithm {
  override val name = "BFS"

  override def run(edges: DataFrame, tracker: SpaceTracker, seed: Long): CcRun = {
    val raw = GraphOps.asEdges(edges)
    val b   = tracker.materialize("B", GraphOps.undirect(GraphOps.canonical(raw)))
    var l   = tracker.materialize("L0", GraphOps.vertices(raw).select(col("v"), col("v").as("r")))
    Rounds(name, 2000000)(l.rows != 0L) { round =>
      // Min of neighbours' current representatives.
      val nbrMin = b.df.join(l.df.select(col("v").as("lw"), col("r")), col("w") === col("lw"))
        .groupBy(col("v")).agg(min(col("r")).as("nr"))
      val improved = l.df.join(nbrMin, Seq("v"), "left_outer")
        .select(col("v"), least(col("r"), coalesce(col("nr"), col("r"))).as("r"),
                (col("nr").isNotNull && col("nr") < col("r")).cast("int").as("changed"))
      val nl      = tracker.endRound(s"L$round", improved)
      val changed = nl.df.agg(sum(col("changed"))).head().getLong(0)
      tracker.drop(l)
      l = nl
      changed != 0L
    }
    CcRun(l.df.select(col("v"), col("r")), tracker)
  }
}
