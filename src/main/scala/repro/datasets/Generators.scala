package repro.datasets

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.GraphOps
import repro.imaging.ImageGraph

/** Synthetic graph generators for the non-image datasets of Table II. */
object Generators {

  /** Sequentially numbered path graph on n vertices (IDs 0..n-1).
    *
    * `Path100M` analogue: the worst case for BFS (diameter rounds), for
    * deterministic contraction (§V-B, Fig. 2a), and a quadratic-space input
    * for Hash-to-Min and Cracker.
    */
  def path(spark: SparkSession, n: Long): DataFrame = {
    require(n >= 2, "a path needs at least 2 vertices")
    GraphOps.range(spark, n - 1).select(col("id").as("v"), (col("id") + 1).as("w"))
  }

  /** Reverse the low `bits` bits of a non-negative long column. */
  private def bitrev(c: Column, bits: Int): Column =
    (0 until bits).map(j => shiftleft(shiftright(c, j).bitwiseAND(lit(1L)), bits - 1 - j))
      .reduce(_ bitwiseOR _)

  /** `PathUnion10` analogue: a union of `k` disjoint paths whose lengths
    * double, "with vertices numbered in a specific way" (§VII-A) to be the
    * Two-Phase adversarial family. We number each path by the bit-reversal
    * permutation of its position index: that destroys the label locality the
    * star operations hook on (long alternating-round tails) while remaining
    * harmless for Randomised Contraction — and, as in the paper, for Cracker
    * (unlike the sequential Path100M, which Cracker cannot handle).
    */
  def pathUnion(spark: SparkSession, k: Int, baseLen: Long): DataFrame = {
    require(k >= 1)
    // Round the base length down to a power of two so bit reversal is a
    // bijection on each path's index range.
    val base = java.lang.Long.highestOneBit(math.max(2L, baseLen))
    var offset = 0L
    val parts = (0 until k).map { i =>
      val len  = base << i
      val bits = java.lang.Long.numberOfTrailingZeros(len)
      val p = GraphOps.range(spark, len - 1).select(
        (bitrev(col("id"), bits) + offset).as("v"),
        (bitrev(col("id") + 1, bits) + offset).as("w"))
      offset += len
      p
    }
    parts.reduce(_ union _)
  }

  /** R-MAT generator [Chakrabarti et al. 2004] with the paper's parameters
    * (0.57, 0.19, 0.19, 0.05) by default. 2^scale vertices, one candidate
    * edge per row (duplicates dropped), vertex IDs randomised afterwards to
    * "decouple the graph structure from artefacts of the generation
    * technique", exactly as in §VII-A.
    */
  def rmat(spark: SparkSession, scale: Int, nEdges: Long,
           a: Double = 0.57, b: Double = 0.19, c: Double = 0.19,
           seed: Long = 0x5EED
          ): DataFrame = {
    require(a + b + c <= 1.0 + 1e-9, "R-MAT quadrant probabilities must sum to <= 1")
    var df = GraphOps.range(spark, nEdges).select(lit(0L).as("v"), lit(0L).as("w"))
    for (level <- 0 until scale) {
      val q      = rand(seed + level)
      val srcBit = (q >= a + b).cast("long")
      val dstBit = ((q >= a && q < a + b) || (q >= a + b + c)).cast("long")
      df = df.select((col("v") + srcBit * (1L << level)).as("v"),
                     (col("w") + dstBit * (1L << level)).as("w"))
    }
    val dedup = df.where(col("v") =!= col("w")).distinct()
    ImageGraph.randomizeIds(dedup, seed + 1000)
  }

  /** Friendster analogue: a social-flavoured R-MAT (milder skew, larger
    * scale-free core). DESIGN.md §4.
    */
  def social(spark: SparkSession, scale: Int, nEdges: Long): DataFrame =
    rmat(spark, scale, nEdges, a = 0.45, b = 0.22, c = 0.22, seed = 0xF12E7DL)

  /** "Streets of Italy" analogue (§VII-C): a city-block street network —
    * the 2D lattice with each road segment kept with probability 0.55,
    * giving the low degree and |E| ≈ |V| of the original. IDs randomised.
    */
  def streets(spark: SparkSession, width: Long, height: Long): DataFrame = {
    val (keep, seed) = (0.55, 0x17A1FL)
    val h = ImageGraph.axis(spark, width, height, frames = 1, (1, 0, 0)).where(rand(seed) < keep)
    val v = ImageGraph.axis(spark, width, height, frames = 1, (0, 1, 0)).where(rand(seed + 1) < keep)
    ImageGraph.randomizeIds(h.union(v).select("v", "w"), seed + 2)
  }
}
