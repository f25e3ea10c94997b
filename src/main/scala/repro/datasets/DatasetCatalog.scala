package repro.datasets

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bitcoin.BitcoinSynth
import repro.imaging.ImageGraph

/** One benchmark dataset: a generator plus the paper's Table II numbers for
  * the side-by-side of the Table II bench.
  */
final case class BenchDataset(
    name: String,
    build: SparkSession => DataFrame,
    paperV: String, paperE: String, paperComponents: String)

/** The 12 datasets of Table II, at laptop scale (DESIGN.md §4 and §6).
  *
  * Sizes scale with env `BENCH_SCALE` (default 1.0 ≈ 10⁴–10⁵ vertices each);
  * the paper ran 10⁸–10⁹-edge originals on a 5-node MPP cluster.
  */
object DatasetCatalog {

  def benchScale: Double =
    sys.env.get("BENCH_SCALE").map(_.toDouble).getOrElse(1.0)

  private def s(n: Long): Long = math.max(4L, (n * benchScale).toLong)
  private def sdim(n: Long): Long = math.max(4L, (n * math.sqrt(benchScale)).toLong)

  /** All Table II datasets, in the paper's row order. */
  def all: Seq[BenchDataset] = Seq(
    // Threshold 20 on our scalar intensity plays the paper's RGB vector
    // distance 50: it sits near the 2D bond-percolation threshold, giving the
    // heavy fragmentation (and power-law component sizes, Fig. 5) of the
    // original Andromeda graph.
    BenchDataset("Andromeda",
      sp => ImageGraph.image2d(sp, sdim(420), sdim(240), threshold = 20),
      "1,459 M", "2,287 M", "62,166 k"),
    BenchDataset("Bitcoin addresses",
      sp => BitcoinSynth.addressGraph(BitcoinSynth.chain(sp, nTx = s(30000), nAddr = s(8000))),
      "878 M", "830 M", "216,917 k"),
    BenchDataset("Bitcoin full",
      sp => BitcoinSynth.fullGraph(BitcoinSynth.chain(sp, nTx = s(30000), nAddr = s(8000))),
      "1,476 M", "2,079 M", "37 k"),
    BenchDataset("Candels10",
      sp => ImageGraph.video3d(sp, 64, 36, frames = s(6), threshold = 20),
      "83 M", "238 M", "39 k"),
    BenchDataset("Candels20",
      sp => ImageGraph.video3d(sp, 64, 36, frames = s(12), threshold = 20),
      "166 M", "483 M", "48 k"),
    BenchDataset("Candels40",
      sp => ImageGraph.video3d(sp, 64, 36, frames = s(24), threshold = 20),
      "332 M", "975 M", "91 k"),
    BenchDataset("Candels80",
      sp => ImageGraph.video3d(sp, 64, 36, frames = s(48), threshold = 20),
      "663 M", "1,958 M", "224 k"),
    BenchDataset("Candels160",
      sp => ImageGraph.video3d(sp, 64, 36, frames = s(96), threshold = 20),
      "1,326 M", "3,923 M", "617 k"),
    BenchDataset("Friendster",
      sp => Generators.social(sp, scale = 15, nEdges = s(250000)),
      "66 M", "1,806 M", "1"),
    BenchDataset("RMAT",
      sp => Generators.rmat(sp, scale = 14, nEdges = s(300000)),
      "39 M", "2,079 M", "5 k"),
    BenchDataset("Path100M",
      sp => Generators.path(sp, s(65536)),
      "100 M", "100 M", "1"),
    BenchDataset("PathUnion10",
      sp => Generators.pathUnion(sp, k = 10, baseLen = math.max(2L, s(32))),
      "154 M", "154 M", "10"),
  )

  /** §VII-C "Streets of Italy" analogue (19 M V / 20 M E in the original). */
  def streets(sp: SparkSession): DataFrame =
    Generators.streets(sp, sdim(320), sdim(180))
}
