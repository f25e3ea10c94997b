package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{Cracker, HashToMin, TwoPhase}
import repro.core.{CcAlgorithm, RandomisedContraction}
import repro.datasets.{BenchDataset, DatasetCatalog}
import repro.graph.{BlowUpException, GraphOps, LocalUnionFind, SpaceTracker}

/** One measured algorithm × dataset cell of Tables III–V.
  *
  * @param status  "ok", or "—" when the run hit the space cap (the analogue
  *                of the paper's did-not-finish entries), or "BAD" if the
  *                labelling disagreed with union-find (never expected).
  */
final case class BenchResult(
    dataset: String, algo: String,
    seconds: Double, rounds: Int,
    inputRows: Long, maxLiveRows: Long, totalWrittenRows: Long,
    status: String) {
  def inputMb: Double   = inputRows * 16.0 / 1e6
  def maxMb: Double     = maxLiveRows * 16.0 / 1e6
  def writtenMb: Double = totalWrittenRows * 16.0 / 1e6
}

/** Sweeps algorithms × datasets and validates every labelling against
  * driver-side union-find, producing the rows of Tables III, IV and V.
  */
object BenchHarness {

  /** The four algorithms of Tables III–V, in the paper's column order. */
  val tableAlgos: Seq[CcAlgorithm] = Seq(RandomisedContraction(), HashToMin, TwoPhase, Cracker)

  /** Space cap (rows) that renders a cell "—": legitimate runs here stay
    * under ~6× input (cf. Table IV), so 40× flags a genuine blow-up.
    */
  def capRows(inputRows: Long): Long = math.max(2_000_000L, inputRows * 40L)

  /** Stats of a materialised dataset, with exact component count; `unionFind`
    * is the reference every labelling of the dataset is checked against.
    */
  final case class DatasetStats(edges: DataFrame, rows: Long, vertices: Long, components: Long,
                                componentSizes: Map[Long, Long], unionFind: LocalUnionFind)

  /** Materialise a dataset and compute its Table II statistics. */
  def prepare(spark: SparkSession, build: SparkSession => DataFrame): DatasetStats = {
    val edges = GraphOps.asEdges(build(spark)).localCheckpoint(true)
    val rows  = edges.count()
    val local = edges.collect().map(r => (r.getLong(0), r.getLong(1)))
    val uf    = LocalUnionFind.fromEdges(local)
    DatasetStats(edges, rows, uf.verticesSeen.size.toLong, uf.componentCount, uf.componentSizes, uf)
  }

  /** Time one algorithm on a prepared dataset; check its labelling is
    * union-find's partition (each vertex once, same classes).
    */
  def runOne(ds: DatasetStats, dataset: String, algo: CcAlgorithm, seed: Long = 42L): BenchResult = {
    val tracker = new SpaceTracker(capRows = capRows(ds.rows), algoName = algo.name)
    val start   = System.nanoTime()
    try {
      val run     = algo.run(ds.edges, tracker, seed)
      val labels  = run.labels.localCheckpoint(true)
      val seconds = (System.nanoTime() - start) / 1e9
      val got     = GraphOps.normalizeLabels(labels).collect().map(r => r.getLong(0) -> r.getLong(1))
      val ok      = got.length == ds.vertices && got.toMap == ds.unionFind.minLabels
      BenchResult(dataset, algo.name, seconds, run.rounds,
        ds.rows, tracker.maxLiveRows, tracker.totalWrittenRows, if (ok) "ok" else "BAD")
    } catch {
      case BlowUpException(_, liveRows, _) =>
        val seconds = (System.nanoTime() - start) / 1e9
        BenchResult(dataset, algo.name, seconds, tracker.roundEdgeRows.size,
          ds.rows, liveRows, tracker.totalWrittenRows, "—")
    }
  }

  /** Run the full Tables III–V sweep. */
  def sweep(spark: SparkSession,
            datasets: Seq[BenchDataset] = DatasetCatalog.all,
            algos: Seq[CcAlgorithm] = tableAlgos): Seq[BenchResult] =
    datasets.flatMap { d =>
      val stats = prepare(spark, d.build)
      algos.map(a => runOne(stats, d.name, a))
    }

  /** One cheap RC run so JIT/codegen warm-up is not billed to the first cell. */
  def warmup(spark: SparkSession): Unit = {
    val tiny = repro.datasets.Generators.rmat(spark, scale = 8, nEdges = 2000)
    tableAlgos.foreach(_.run(tiny, seed = 1L).labels.count())
  }
}
