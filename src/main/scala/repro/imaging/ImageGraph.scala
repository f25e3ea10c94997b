package repro.imaging

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.FiniteField64
import repro.gf.GfFunctions
import repro.graph.GraphOps

/** Image/video → graph conversion (paper §VII-A).
  *
  * The paper converts a Gigapixel Andromeda photo to a graph (one vertex per
  * pixel, an edge between horizontally/vertically adjacent pixels whose
  * colour distance is below a threshold) and a 4K video to a 3D variant with
  * 6-connectivity over (x, y, time). We have neither image; instead we render
  * a deterministic procedural *value-noise* image — smooth large-scale
  * structure quantised to 8-bit intensities — which, thresholded the same
  * way, yields the same graph family: degree ≤ 4 (2D) / ≤ 6 (3D) and a broad,
  * roughly scale-free component-size spread (cf. Fig. 5). Substitution is
  * documented in DESIGN.md §4.
  *
  * Everything is computed as pure column expressions (the intensity function
  * is re-evaluated on both endpoints of a candidate edge), so graph
  * generation itself is a single narrow Spark job with no joins.
  *
  * Vertex IDs are randomised through a fixed GF(2^64) bijection, exactly as
  * the paper randomised pixel IDs "so that they would not reflect the
  * geometry of the original image".
  */
object ImageGraph {

  /** Lattice cell size of the value noise (bigger ⇒ larger blobs). 4 gives
    * per-pixel gradients up to ~64 intensity levels, so the paper's
    * thresholds (50 for 2D, 20 for 3D) actually cut region boundaries:
    * ~95% / ~53% of candidate edges survive respectively — above the 2D bond
    * percolation threshold (big regions plus islands) and near it in 3D.
    */
  private val Cell = 4

  /** Pseudo-random corner value in [0, 256) for lattice point (cx, cy, ct). */
  private def corner(cx: Column, cy: Column, ct: Column, seed: Long): Column =
    pmod(xxhash64(cx, cy, ct, lit(seed)), lit(256L)).cast("double")

  /** 8-bit intensity at integer coordinates via trilinear value-noise. */
  def intensity(x: Column, y: Column, t: Column, seed: Long): Column = {
    val cx = floor(x / Cell).cast("long")
    val cy = floor(y / Cell).cast("long")
    val ct = floor(t / Cell).cast("long")
    val fx = (x - cx * Cell).cast("double") / Cell
    val fy = (y - cy * Cell).cast("double") / Cell
    val ft = (t - ct * Cell).cast("double") / Cell
    def lerp(a: Column, b: Column, f: Column): Column = a + (b - a) * f
    def at(dx: Int, dy: Int, dt: Int): Column =
      corner(cx + dx, cy + dy, ct + dt, seed)
    val c00 = lerp(at(0, 0, 0), at(1, 0, 0), fx)
    val c10 = lerp(at(0, 1, 0), at(1, 1, 0), fx)
    val c01 = lerp(at(0, 0, 1), at(1, 0, 1), fx)
    val c11 = lerp(at(0, 1, 1), at(1, 1, 1), fx)
    val c0  = lerp(c00, c10, fy)
    val c1  = lerp(c01, c11, fy)
    floor(lerp(c0, c1, ft)).cast("long")
  }

  /** Fixed GF(2^64) bijection scrambling both endpoints of `edges`: one RC round drawn from `seed`. */
  def randomizeIds(edges: DataFrame, seed: Long): DataFrame = {
    GfFunctions.ensureRegistered(edges.sparkSession)
    val round = FiniteField64.nextRound(new scala.util.Random(seed))
    Seq("v", "w").foldLeft(edges)((d, c) => d.withColumn(c, expr(round.hash(s"cast($c as bigint)"))))
  }

  /** Candidate edges p–(p + d) of a `width × height × frames` lattice along
    * axis `d = (dx, dy, dt)`: p's `x`, `y`, `t` and the IDs `v` of p and `w`
    * of p + d, point (x, y, t) having ID `(t·height + y)·width + x`.
    */
  def axis(spark: SparkSession, width: Long, height: Long, frames: Long,
           d: (Int, Int, Int)): DataFrame = {
    val (dx, dy, dt) = d
    val (nx, ny)     = (width - dx, height - dy)
    val (x, y, t)    = (col("x"), col("y"), col("t"))
    def id(x: Column, y: Column, t: Column): Column = (t * height + y) * width + x
    // `/` on longs is double division in Spark SQL — floor+cast throughout.
    GraphOps.range(spark, nx * ny * (frames - dt)).select(
      (col("id") % nx).as("x"),
      (floor(col("id") / nx).cast("long") % ny).as("y"),
      floor(col("id") / (nx * ny)).cast("long").as("t"))
      .select(x, y, t, id(x, y, t).as("v"), id(x + dx, y + dy, t + dt).as("w"))
  }

  /** 2D image graph, the Andromeda analogue: a one-frame [[video3d]]
    * (4-connectivity). Isolated pixels are excluded, as in Table II.
    */
  def image2d(spark: SparkSession, width: Long, height: Long, threshold: Int): DataFrame =
    lattice(spark, width, height, frames = 1, threshold, seed = 0xA11D0L)

  /** 3D volume graph, the Candels analogue: the +x, +y and +t edges
    * (6-connectivity) whose endpoint intensities differ by at most
    * `threshold`, with randomised IDs. Frame count doubles across the
    * paper's Candels10…160 scalability series.
    */
  def video3d(spark: SparkSession, width: Long, height: Long, frames: Long,
              threshold: Int): DataFrame =
    lattice(spark, width, height, frames, threshold, seed = 0xCA4DE15L)

  private def lattice(spark: SparkSession, width: Long, height: Long, frames: Long,
                      threshold: Int, seed: Long): DataFrame = {
    val (x, y, t) = (col("x"), col("y"), col("t"))
    val kept = Seq((1, 0, 0), (0, 1, 0), (0, 0, 1)).map { case d @ (dx, dy, dt) =>
      axis(spark, width, height, frames, d)
        .where(abs(intensity(x, y, t, seed) - intensity(x + dx, y + dy, t + dt, seed)) <= threshold)
        .select("v", "w")
    }
    randomizeIds(kept.reduce(_ union _), seed + 1)
  }
}
