package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.SpaceTracker

/** One finished connected-components run.
  *
  * @param labels  DataFrame (v: long, r: long) — one row per vertex of the
  *                input, two vertices share `r` iff they are connected (§III).
  * @param tracker space accounting for Tables IV and V, and the record of
  *                rounds. It holds the table `labels` is read from, which
  *                stays live until the caller calls `run.tracker.dropAll()`.
  */
final case class CcRun(labels: DataFrame, tracker: SpaceTracker) {
  def rounds: Int = tracker.roundEdgeRows.size
}

/** Common surface for Randomised Contraction and all baseline algorithms, so
  * the bench harness (Tables III–V) can sweep algorithms × datasets.
  */
trait CcAlgorithm {
  /** Short display name used in the tables (RC, HM, TP, CR, ...). */
  def name: String

  /** Compute connected components of an undirected edge table (v, w).
    *
    * Loop edges mark isolated vertices; duplicates and both orientations are
    * tolerated. Must label every vertex ID occurring in `edges`, and write
    * each round's table with `tracker.endRound`.
    *
    * @param tracker space accounting; throws [[repro.graph.BlowUpException]]
    *                if the configured cap is exceeded (harness renders "—").
    * @param seed    randomness seed — runs are deterministic given the seed.
    */
  def run(edges: DataFrame, tracker: SpaceTracker, seed: Long): CcRun

  /** Convenience overload with a fresh unbounded tracker. */
  final def run(edges: DataFrame, seed: Long = 42L): CcRun =
    run(edges, new SpaceTracker(algoName = name), seed)
}

/** The round loop of every algorithm: the paper's scripts repeat a block of
  * `CREATE TABLE` / `DROP TABLE` statements until a test on the new tables
  * says the work is done.
  */
object Rounds {
  /** Runs `step(round)` while `start` (before the first round) or the last
    * step's result asks for another round, and fails the run once more than
    * `max` rounds would be needed. The default `max` is a safety valve only:
    * RC and its comparators expect O(log |V|) or O(log² |V|) rounds.
    */
  def apply(algo: String, max: Int = 10000)(start: Boolean)(step: Int => Boolean): Unit = {
    var round = 0
    var more  = start
    while (more) {
      round += 1
      require(round <= max, s"$algo did not converge in $max rounds")
      more = step(round)
    }
  }
}
