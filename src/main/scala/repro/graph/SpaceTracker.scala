package repro.graph

import org.apache.spark.sql.DataFrame
import scala.collection.mutable

/** Thrown when an algorithm's live intermediate state exceeds the harness cap
  * — the analogue of the paper's "did not finish with the available
  * resources" entries ("—" in Tables III–V).
  */
final case class BlowUpException(algo: String, liveRows: Long, capRows: Long)
    extends RuntimeException(s"$algo exceeded space cap: $liveRows live rows > cap $capRows")

/** A materialised table: the result of the paper's `CREATE TABLE name AS …`. */
final case class Table(name: String, df: DataFrame, rows: Long)

/** Accounting for the paper's space metrics (Tables IV and V).
  *
  * Every intermediate an algorithm materialises corresponds to a
  * `CREATE TABLE` in the paper's SQL scripts; [[materialize]] plays that role
  * here (localCheckpoint = write the table, count = its row count) and
  * [[drop]] plays `DROP TABLE`. From these events we track:
  *
  *   - maximum live rows at any instant → Table IV "maximum space used";
  *   - total rows ever written          → Table V "total gigabytes written"
  *     (what a transaction would have to retain).
  */
final class SpaceTracker(val capRows: Long = Long.MaxValue, val algoName: String = "") {
  private val live         = mutable.LinkedHashMap.empty[String, Long]
  private var maxLive      = 0L
  private var written      = 0L
  private val roundRowsBuf = mutable.ArrayBuffer.empty[Long]

  /** Materialise a DataFrame (truncating lineage) as the live table `name`.
    *
    * `localCheckpoint` alone is not enough: Spark copies the *estimated*
    * statistics of the original plan onto the checkpointed LogicalRDD
    * (`LogicalRDD.rewriteStatsAndConstraints`). Join estimates multiply, so
    * materialising round after round compounds `sizeInBytes` into BigInts
    * whose digit count triples per round — after ~12 rounds the driver spends
    * minutes multiplying million-digit numbers during planning. Re-wrapping
    * the checkpointed RDD in a fresh DataFrame resets the stats to the
    * session default each round, keeping planning O(1) per round.
    */
  def materialize(name: String, df: DataFrame): Table = {
    require(!live.contains(name), s"$algoName: table $name is already live")
    val ck   = df.localCheckpoint(true)
    val out  = df.sparkSession.createDataFrame(ck.rdd, ck.schema)
    val rows = out.count()
    live(name) = rows
    written += rows
    val total = liveRows
    if (total > maxLive) maxLive = total
    if (total > capRows) throw BlowUpException(algoName, total, capRows)
    Table(name, out, rows)
  }

  /** `DROP TABLE`: the table's space is freed. Only a live table can be dropped. */
  def drop(table: Table): Unit =
    require(live.remove(table.name).isDefined, s"$algoName: table ${table.name} is not live")

  /** Record the edge-table size after a contraction round (shrink telemetry). */
  def recordRound(edgeRows: Long): Unit = roundRowsBuf += edgeRows

  def maxLiveRows: Long        = maxLive
  def totalWrittenRows: Long   = written
  def liveRows: Long           = live.valuesIterator.sum
  def roundEdgeRows: Seq[Long] = roundRowsBuf.toSeq
}
