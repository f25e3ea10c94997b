package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{Cracker, HashToMin, TwoPhase}
import repro.core.{CcAlgorithm, RandomisedContraction}
import repro.datasets.{BenchDataset, DatasetCatalog, Generators}
import repro.graph.{BlowUpException, GraphOps, LocalUnionFind, SpaceTracker}

/** One measured algorithm × dataset cell of Tables I and III–V.
  *
  * @param roundEdgeRows the rows left after each round (its length is the rounds, its shrink Table I's γ).
  * @param status  "ok", or "—" when the run hit the space cap (the analogue
  *                of the paper's did-not-finish entries), or "BAD" if the
  *                labelling disagreed with union-find (never expected).
  */
final case class BenchResult(
    dataset: String, algo: String, seconds: Double,
    inputRows: Long, maxLiveRows: Long, totalWrittenRows: Long,
    roundEdgeRows: Seq[Long], status: String) {
  def rounds: Int       = roundEdgeRows.size
  def inputMb: Double   = inputRows * 16.0 / 1e6
  def maxMb: Double     = maxLiveRows * 16.0 / 1e6
  def writtenMb: Double = totalWrittenRows * 16.0 / 1e6
}

/** Sweeps algorithms × datasets and validates every labelling against
  * driver-side union-find, producing the rows of Tables II, III, IV and V.
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
    * `tracker` holds the edge table, which `tracker.dropAll()` frees.
    */
  final case class DatasetStats(edges: DataFrame, rows: Long, unionFind: LocalUnionFind, tracker: SpaceTracker) {
    def vertices: Long                 = unionFind.verticesSeen.size.toLong
    def components: Long               = unionFind.componentCount
    def componentSizes: Map[Long, Long] = unionFind.componentSizes
  }

  /** Materialise a dataset and compute its Table II statistics. */
  def prepare(spark: SparkSession, build: SparkSession => DataFrame): DatasetStats = {
    val tracker = new SpaceTracker(algoName = "harness")
    val edges   = tracker.materialize("edges", GraphOps.asEdges(build(spark)))
    val uf      = LocalUnionFind.fromEdges(edges.df.collect().map(r => (r.getLong(0), r.getLong(1))))
    DatasetStats(edges.df, edges.rows, uf, tracker)
  }

  /** Why `labels` (v, r) is not `uf`'s partition, or None if it is: every
    * vertex labelled once, and the labels normalised to component minima.
    */
  def partitionMismatch(labels: DataFrame, uf: LocalUnionFind): Option[String] = {
    val rows = GraphOps.normalizeLabels(labels).collect().map(r => r.getLong(0) -> r.getLong(1))
    val (got, want) = (rows.toMap, uf.minLabels)
    if (rows.length != got.size)
      Some(s"duplicate vertex rows in labels: ${rows.length} rows, ${got.size} vertices")
    else Option.when(got != want)(
      s"partition mismatch:\n  missing/wrong: ${(want.toSet -- got.toSet).take(5)}\n" +
      s"  unexpected:    ${(got.toSet -- want.toSet).take(5)}")
  }

  /** Time one algorithm on a prepared dataset; check its labelling is
    * union-find's partition. The run's tables and its labels are freed
    * before it returns. A run that hits the cap differs only in its seconds
    * (until the blow-up) and its status; its rounds are those it recorded.
    */
  def runOne(ds: DatasetStats, dataset: String, algo: CcAlgorithm, seed: Long = 42L): BenchResult = {
    val tracker = new SpaceTracker(capRows = capRows(ds.rows), algoName = algo.name)
    val start   = System.nanoTime()
    def since   = (System.nanoTime() - start) / 1e9
    val (seconds, status) =
      try {
        val labels = ds.tracker.materialize("labels", algo.run(ds.edges, tracker, seed).labels)
        val took   = since
        val ok     = partitionMismatch(labels.df, ds.unionFind).isEmpty
        ds.tracker.drop(labels)
        (took, if (ok) "ok" else "BAD")
      } catch {
        case _: BlowUpException => (since, "—")
      } finally tracker.dropAll()
    BenchResult(dataset, algo.name, seconds, ds.rows,
      tracker.maxLiveRows, tracker.totalWrittenRows, tracker.roundEdgeRows, status)
  }

  /** Run the full Tables II–V sweep: each dataset is prepared once, its
    * cells run, and its edge table freed before the next is prepared. Each
    * entry holds the dataset, its statistics (Table II) and its cells
    * (Tables III–V). The statistics are read after the sweep, so only their
    * driver-side figures hold: `rows` and the union-find, hence |V|, the
    * component count and the component sizes. Their edge table is freed.
    */
  def sweep(spark: SparkSession,
            datasets: Seq[BenchDataset] = DatasetCatalog.all,
            algos: Seq[CcAlgorithm] = tableAlgos): Seq[(BenchDataset, DatasetStats, Seq[BenchResult])] =
    datasets.map { d =>
      val stats = prepare(spark, d.build)
      try (d, stats, algos.map(a => runOne(stats, d.name, a)))
      finally stats.tracker.dropAll()
    }

  /** One sweep over a tiny graph so JIT/codegen warm-up is not billed to the first cell. */
  def warmup(spark: SparkSession): Unit =
    sweep(spark, Seq(BenchDataset("warm-up", Generators.rmat(_, scale = 8, nEdges = 2000), "-", "-", "-")))
}
