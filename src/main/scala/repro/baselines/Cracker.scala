package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{CcAlgorithm, CcRun, Rounds}
import repro.graph.{GraphOps, SpaceTracker, Table}

/** Cracker [Lulli et al., TPDS 2017] — vertex-pruning CC, the Spark-native
  * comparator in the paper. Reimplemented from the paper's description
  * (Min-Selection + Pruning + propagation tree), without the "Salty"
  * optimisations, as a direct dataflow→SQL translation (§VII).
  *
  * Per iteration:
  *  1. Min-Selection: every node u computes vmin = min(N[u]) and notifies
  *     every member of N[u] of vmin → the "seed candidate" graph H, where
  *     NH(v) is the set of minima v was told about.
  *  2. Pruning: a node v that nobody (itself included) selected as a minimum
  *     (v ∉ NH(v)) is pruned: it adds the tree edge v → min(NH(v)) and drops
  *     out. Every node links the minima it heard of to min(NH(v)), keeping
  *     the surviving seed candidates connected. A pruned node can never be a
  *     later round's minimum, so each vertex enters the tree at most once;
  *     never-pruned vertices are the component roots.
  *  3. When the graph is empty, component labels propagate from the roots
  *     down the forest; we use pointer jumping, so propagation takes
  *     O(log depth) joins (roots are absent from the tree and label
  *     themselves in the final left-outer coalesce).
  */
case object Cracker extends CcAlgorithm {
  override val name = "CR"

  override def run(edges: DataFrame, tracker: SpaceTracker, seed: Long): CcRun = {
    val spark = edges.sparkSession
    val raw   = GraphOps.asEdges(edges)
    val verts = GraphOps.vertices(raw)

    // Bidirectional, loop-free working graph.
    var g     = tracker.materialize("G0", GraphOps.undirect(GraphOps.canonical(raw)))
    var trees = List.empty[Table] // accumulated tree-edge tables
    Rounds(name)(g.rows > 0L) { round =>
      // 1. Min-Selection: vmin over the closed neighbourhood, told to N[u].
      val m = g.df.groupBy(col("v")).agg(least(col("v"), min(col("w"))).as("vmin"))
      val h = g.df.join(m, "v").select(col("w").as("node"), col("vmin"))
        .union(m.select(col("v").as("node"), col("vmin")))
        .distinct()
      val hm = tracker.materialize(s"H$round", h)

      // 2. Pruning: per node, the min of the heard-of minima, and whether the
      // node itself is among them (i.e. survives as a seed candidate).
      val a = hm.df.groupBy(col("node")).agg(
        min(col("vmin")).as("vmin2"),
        max(when(col("vmin") === col("node"), 1).otherwise(0)).as("is_cand"))
      val am = tracker.materialize(s"A$round", a)

      // Only pruned nodes enter the propagation tree. A never-pruned node is
      // its component's root and labels itself in the final coalesce — adding
      // explicit (root, root) rows here would duplicate each round the root
      // survives and blow up the pointer-jumping joins.
      val pruned = am.df.where(col("is_cand") === 0)
        .select(col("node").as("child"), col("vmin2").as("parent"))
      trees ::= tracker.materialize(s"T$round", pruned)

      // Next graph: connect every heard-of minimum to the node's overall
      // minimum (bidirectional for the next Min-Selection).
      val nextDirected = hm.df.join(am.df, "node").where(col("vmin") =!= col("vmin2"))
        .select(col("vmin").as("v"), col("vmin2").as("w"))
      val ng = tracker.endRound(s"G$round", GraphOps.undirect(nextDirected).distinct())
      tracker.drop(hm); tracker.drop(am); tracker.drop(g)
      g = ng
      g.rows > 0L
    }
    tracker.drop(g)

    // Propagate labels down the forest by pointer jumping.
    val allTrees = trees.map(_.df).reduceOption(_ union _)
      .getOrElse(spark.range(0).select(col("id").as("child"), col("id").as("parent")))
    var p = tracker.materialize("P", allTrees)
    trees.foreach(tracker.drop)
    Rounds(s"$name label propagation", 64)(true) { hops =>
      val gp = p.df.select(col("child").as("c2"), col("parent").as("gp"))
      // `moved`: the child's parent changed in this hop.
      val jumped = p.df.join(gp, p.df("parent") === gp("c2"), "left_outer")
        .select(col("child"), coalesce(col("gp"), col("parent")).as("parent"),
          (coalesce(col("gp"), col("parent")) =!= col("parent")).as("moved"))
      val np = tracker.materialize(s"P$hops", jumped)
      tracker.drop(p)
      p = np
      !np.df.where(col("moved")).isEmpty
    }

    val labels = GraphOps.labelOrSelf(verts, p.df.select(col("child").as("v"), col("parent").as("r")))
    CcRun(labels, tracker)
  }
}
