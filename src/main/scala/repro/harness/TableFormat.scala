package repro.harness

import java.nio.file.{Files, Paths, StandardOpenOption}
import repro.datasets.BenchDataset

/** Renders bench results in the layout of the paper's tables and persists
  * them under `bench/results/` so EXPERIMENTS.md can cite a concrete run.
  */
object TableFormat {

  /** `<repo root>/bench/results` — forked test JVMs run with the subproject
    * directory as cwd, so walk up to the directory holding build.sbt first.
    */
  def resultsDir: java.nio.file.Path = {
    var dir = Paths.get(sys.props("user.dir")).toAbsolutePath
    while (dir.getParent != null && !Files.exists(dir.resolve("build.sbt")))
      dir = dir.getParent
    dir.resolve("bench").resolve("results")
  }

  def save(fileName: String, content: String): Unit = {
    val dir = resultsDir
    Files.createDirectories(dir)
    Files.write(dir.resolve(fileName), (content + "\n").getBytes("UTF-8"),
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
  }

  private def row(cells: Seq[String], widths: Seq[Int]): String =
    cells.zip(widths).map { case (c, w) => c.reverse.padTo(w, ' ').reverse }.mkString("  ")

  def render(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val widths = header.indices.map(i => (header(i) +: rows.map(_(i))).map(_.length).max)
    (row(header, widths) +: row(header.map("-" * _.length), widths) +: rows.map(row(_, widths)))
      .mkString("\n")
  }

  private def cell(r: BenchResult, value: BenchResult => String): String =
    if (r.status == "—") "—" else if (r.status == "BAD") "BAD" else value(r)

  private def grid(results: Seq[BenchResult], algos: Seq[String],
                   value: BenchResult => String): Seq[Seq[String]] = {
    val byKey = results.map(r => (r.dataset, r.algo) -> r).toMap
    results.map(_.dataset).distinct.map { d =>
      d +: algos.map(a => byKey.get((d, a)).map(cell(_, value)).getOrElse(""))
    }
  }

  /** Table III layout: runtimes in seconds per dataset × algorithm. */
  def tableIII(results: Seq[BenchResult], algos: Seq[String]): String =
    render("Dataset" +: algos, grid(results, algos, r => f"${r.seconds}%.1f"))

  /** Tables IV and V layout: input size and, per algorithm, a space figure
    * in MB-equivalents (rows × 16 B) — max live (IV) or total written (V).
    */
  def spaceTable(results: Seq[BenchResult], algos: Seq[String], mb: BenchResult => Double): String = {
    val inputs = results.groupBy(_.dataset).view.mapValues(_.head.inputMb).toMap
    val g = grid(results, algos, r => f"${mb(r)}%.1f")
    render(Seq("Dataset", "input MB") ++ algos,
      g.map(r => Seq(r.head, f"${inputs(r.head)}%.1f") ++ r.tail))
  }

  /** Raw per-cell dump (TSV) for archival. */
  def tsv(results: Seq[BenchResult]): String =
    ("dataset\talgo\tstatus\tseconds\trounds\tinput_rows\tmax_live_rows\ttotal_written_rows" +:
      results.map(r => s"${r.dataset}\t${r.algo}\t${r.status}\t" +
        f"${r.seconds}%.2f\t${r.rounds}\t${r.inputRows}\t${r.maxLiveRows}\t${r.totalWrittenRows}"))
      .mkString("\n")

  /** Table II layout: our V/E/components next to the paper's. */
  def tableII(rows: Seq[(BenchDataset, BenchHarness.DatasetStats)]): String =
    render(
      Seq("Dataset", "|V|", "|E|", "components", "paper |V|", "paper |E|", "paper comps"),
      rows.map { case (d, s) =>
        Seq(d.name, s.vertices.toString, s.rows.toString, s.components.toString,
          d.paperV, d.paperE, d.paperComponents)
      })
}
