package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, rand, when}
import repro.baselines.Cracker
import repro.core.{CcAlgorithm, RandomisedContraction}
import repro.datasets.Generators

/** One benchmark workload: a generated graph and the algorithm labelling it.
  *
  * @param graph   builds the graph; `tiny` selects the self-test size, which
  *                runs the same code on a few dozen rows.
  * @param runSeed the seed handed to `CcAlgorithm.run`.
  *
  * The graph and the run seed are fixed per workload. RC's round count moves
  * by several rounds between run seeds (12, 11 and 16 on one R-MAT graph),
  * and just as much between random graphs of one family, which would swamp
  * any real change; fixed, the rounds and space ratios repeat exactly. The
  * workload seed instead shuffles the input rows and flips the orientation
  * of about half the edges: the same graph as a different table, so every
  * seed also checks that the labelling does not depend on row order.
  */
final case class Workload(name: String, algo: CcAlgorithm,
                          graph: (SparkSession, Boolean) => DataFrame,
                          runSeed: Long) {
  def input(spark: SparkSession, seed: Long, tiny: Boolean): DataFrame = {
    val flip = rand(seed) < 0.5
    graph(spark, tiny)
      .select(when(flip, col("w")).otherwise(col("v")).as("v"),
              when(flip, col("v")).otherwise(col("w")).as("w"))
      .orderBy(rand(seed + 1))
  }
}

/** Every workload runs one algorithm, so every workload reports the same
  * metric names. At these sizes a labelling costs a few seconds, almost all
  * of it Spark's fixed cost per query; the paper's larger inputs would not
  * leave room for several timed labellings per run. RC is the algorithm the
  * paper is about; Cracker is the baseline of §VII-C and drives
  * `SpaceTracker` through many small tables. Each further workload adds
  * about a minute per run on a loaded 4-core host, which the benchmark's
  * run budget does not allow.
  */
object Workloads {

  /** Sequential path (the `Path100M` analogue): RC with many rounds and
    * little data per round.
    */
  private def path(sp: SparkSession, tiny: Boolean): DataFrame =
    Generators.path(sp, if (tiny) 1L << 6 else 1L << 10)

  /** The §VII-C streets lattice at 80×45 (16×9 for the self-test), with
    * the generator's own seed, as `DatasetCatalog.streets` uses it.
    */
  private def streets(sp: SparkSession, tiny: Boolean): DataFrame =
    if (tiny) Generators.streets(sp, 16, 9) else Generators.streets(sp, 80, 45)

  val all: Seq[Workload] = Seq(
    Workload("path-rc", RandomisedContraction(), path, runSeed = 1L),
    Workload("streets-cr", Cracker, streets, runSeed = 3L),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
