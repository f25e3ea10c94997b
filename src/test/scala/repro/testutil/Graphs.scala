package repro.testutil

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.Assertions._
import repro.gf.ModP
import repro.graph.LocalUnionFind
import repro.harness.BenchHarness
import scala.util.Random

/** Shared test fixtures: a zoo of small graphs with known component
  * structure, plus partition-equality assertions against union-find.
  */
object Graphs {

  final case class G(name: String, edges: Seq[(Long, Long)])

  /** Every ID lies in [0, p) = [0, 2^31-1), the domain of the GF(p) randomisation method. */
  def inGfp(edges: Seq[(Long, Long)]): Boolean =
    edges.forall { case (v, w) => Seq(v, w).forall(x => x >= 0L && x < ModP.P) }

  /** The path through `ids` in order: one edge per consecutive pair. */
  def pathEdges(ids: Seq[Long]): Seq[(Long, Long)] = ids.zip(ids.tail)

  /** Small graphs covering the paper's edge cases: loops (isolated vertices),
    * duplicates, both orientations, adversarial sequential numbering,
    * multiple components, dense and sparse shapes, extreme IDs.
    */
  val zoo: Seq[G] = Seq(
    G("single-edge", Seq((1L, 2L))),
    G("single-loop", Seq((5L, 5L))),
    G("two-loops", Seq((5L, 5L), (9L, 9L))),
    G("path10-sequential", pathEdges(1L to 10L map (_.toLong))),
    G("path10-reversed", pathEdges((1L to 10L).reverse.map(_.toLong))),
    G("path10-shuffled", pathEdges(Seq(7L, 2L, 9L, 4L, 1L, 8L, 3L, 10L, 5L, 6L))),
    G("cycle9", pathEdges(1L to 9L map (_.toLong)) :+ (9L -> 1L)),
    G("star-min-centre", (1L to 8L).map(i => (0L, i))),
    G("star-max-centre", (1L to 8L).map(i => (100L, i))),
    G("complete6", for { i <- 1L to 6L; j <- (i + 1) to 6L } yield (i, j)),
    G("two-triangles", Seq((1L, 2L), (2L, 3L), (3L, 1L), (10L, 11L), (11L, 12L), (12L, 10L))),
    G("binary-tree15", (2L to 15L).map(i => (i / 2, i))),
    G("barbell", (for { i <- 1L to 4L; j <- (i + 1) to 4L } yield (i, j)) ++
      (for { i <- 11L to 14L; j <- (i + 1) to 14L } yield (i, j)) ++ Seq((4L, 7L), (7L, 11L))),
    G("mixed", pathEdges(1L to 5L map (_.toLong)) ++ Seq((20L, 21L), (21L, 22L), (22L, 20L)) ++
      Seq((30L, 30L), (31L, 31L)) ++ (41L to 44L).map(i => (40L, i))),
    G("dup-and-both-orientations", Seq((1L, 2L), (2L, 1L), (1L, 2L), (2L, 3L), (3L, 2L))),
    G("grid3x4", (for { y <- 0L until 3L; x <- 0L until 3L } yield (y * 4 + x, y * 4 + x + 1)) ++
      (for { y <- 0L until 2L; x <- 0L until 4L } yield (y * 4 + x, y * 4 + x + 4))),
    G("huge-ids", Seq((1L << 62, (1L << 62) + 1), ((1L << 62) + 1, (1L << 62) + 2),
      (42L, 43L))),
    G("negative-ids", Seq((-5L, -4L), (-4L, 3L), (-100L, -100L))),
    // Isolated 0 and p = 2^31-1: the two IDs GF(p)'s map sends to the same value.
    G("ids-0-and-2^31-1", Seq((0L, 0L), (Int.MaxValue.toLong, Int.MaxValue.toLong))),
  )

  /** A G(n, p) random graph with loop edges added for isolated vertices. */
  def randomGnp(n: Int, p: Double, seed: Long): Seq[(Long, Long)] = {
    val rng   = new Random(seed)
    val edges = for { i <- 0 until n; j <- (i + 1) until n if rng.nextDouble() < p }
      yield (i.toLong, j.toLong)
    val present = edges.flatMap(e => Seq(e._1, e._2)).toSet
    edges ++ (0 until n).filter(i => !present(i.toLong)).map(i => (i.toLong, i.toLong))
  }

  def toDf(spark: SparkSession, edges: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    edges.toDF("v", "w")
  }

  /** The rows of a two-LONG-column table (edges or labels), collected. */
  def pairs(df: DataFrame): Seq[(Long, Long)] =
    df.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq

  /** Number of distinct components in a labelling (v, r). */
  def componentCount(labels: DataFrame): Long =
    labels.select("r").distinct().count()

  /** Assert a labels DataFrame (v, r) describes exactly the partition of
    * `edges`, as [[BenchHarness.partitionMismatch]] checks it.
    */
  def assertPartition(labels: DataFrame, edges: Seq[(Long, Long)]): Unit =
    BenchHarness.partitionMismatch(labels, LocalUnionFind.fromEdges(edges)).foreach(fail(_))
}
