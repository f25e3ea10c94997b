package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Edge-table conventions and shared graph transformations.
  *
  * A graph is a DataFrame with two LONG columns `v` and `w`, one row per
  * undirected edge, mirroring the paper's input table G (§III). Loop edges
  * (v, v) encode isolated vertices. Duplicate rows and both orientations of
  * the same edge are permitted on input; algorithms canonicalise as needed.
  */
object GraphOps {

  /** Column names every edge table uses. */
  val V = "v"
  val W = "w"

  /** `spark.range(n)` over a fixed 4 partitions, the rows every generator
    * draws from: `rand(seed)` is seeded per partition, so a host-dependent
    * partition count would make the graphs host-dependent (DESIGN.md §2).
    */
  def range(spark: SparkSession, n: Long): DataFrame = spark.range(0, n, 1, 4).toDF()

  /** Coerce an arbitrary two-column DataFrame into the (v, w) LONG schema. */
  def asEdges(df: DataFrame): DataFrame = {
    require(df.columns.length == 2, s"edge table needs exactly 2 columns, got ${df.columns.mkString(",")}")
    df.select(col(df.columns(0)).cast("long").as(V), col(df.columns(1)).cast("long").as(W))
  }

  /** The paper's setup step: `select v,w from G union all select w,v from G`.
    *
    * Produces a table that contains each undirected edge in both directions,
    * so a single `group by v` sees the full neighbourhood of v.
    */
  def undirect(edges: DataFrame): DataFrame =
    edges.select(col(V), col(W)).union(edges.select(col(W).as(V), col(V).as(W)))

  /** Distinct vertex IDs appearing anywhere in the edge table. */
  def vertices(edges: DataFrame): DataFrame =
    edges.select(col(V)).union(edges.select(col(W).as(V))).distinct()

  /** Canonical undirected form: each edge once as (min, max), loops dropped. */
  def canonical(edges: DataFrame): DataFrame =
    edges
      .where(col(V) =!= col(W))
      .select(least(col(V), col(W)).as(V), greatest(col(V), col(W)).as(W))
      .distinct()

  /** The labelling (v, r) of every vertex in `vertices`: its row of `labels`
    * (v, r), or itself when `labels` has none — e.g. an isolated vertex, or a
    * root of Cracker's propagation forest.
    */
  def labelOrSelf(vertices: DataFrame, labels: DataFrame): DataFrame =
    vertices.join(labels, Seq(V), "left_outer").select(col(V), coalesce(col("r"), col(V)).as("r"))

  /** Normalise a labelling (v, r) so partitions can be compared.
    *
    * Connected-component labels only need to be *unique per component* (§III)
    * — Randomised Contraction relabels vertices every round, so its labels are
    * arbitrary field elements. Mapping every label to the minimum vertex ID
    * that carries it yields a canonical labelling: two labelings describe the
    * same partition iff their normalisations are identical.
    */
  def normalizeLabels(labels: DataFrame): DataFrame = {
    val reps = labels.groupBy(col("r")).agg(min(col("v")).as("rep"))
    labels.join(reps, "r").select(col("v"), col("rep"))
  }
}
