package repro.graph

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import scala.collection.mutable

/** Thrown when an algorithm's live intermediate state exceeds the harness cap
  * — the analogue of the paper's "did not finish with the available
  * resources" entries ("—" in Tables III–V).
  */
final case class BlowUpException(algo: String, liveRows: Long, capRows: Long)
    extends RuntimeException(s"$algo exceeded space cap: $liveRows live rows > cap $capRows")

/** A materialised table: the result of the paper's `CREATE TABLE name AS …`. */
final case class Table(name: String, df: DataFrame, rows: Long) {
  /** The fixpoint test: this table holds `prev`'s rows (both distinct, so ⊆ with equal counts is equality). */
  def sameRows(prev: Table): Boolean = rows == prev.rows && df.except(prev.df).isEmpty
}

/** Accounting for the paper's space metrics (Tables IV and V), and the one
  * place an algorithm's tables are written and freed.
  *
  * Every intermediate an algorithm materialises corresponds to a
  * `CREATE TABLE` in the paper's SQL scripts; [[materialize]] plays that role
  * here (localCheckpoint = write the table, count = its row count) and
  * [[drop]] plays `DROP TABLE`, freeing the table's storage. From these
  * events we track:
  *
  *   - maximum live rows at any instant → Table IV "maximum space used";
  *   - total rows ever written          → Table V "total gigabytes written"
  *     (what a transaction would have to retain).
  *
  * So Spark holds the blocks of the live tables only, as a database holds
  * the tables not yet dropped. [[view]] gives a live table its name in SQL,
  * and [[drop]] ends both. [[dropAll]] frees them all: the tracker's owner
  * calls it once done with the tables, and a failed [[materialize]] calls
  * it, so a failed run leaves nothing cached and no view registered.
  */
final class SpaceTracker(val capRows: Long = Long.MaxValue, val algoName: String = "") {
  /** A live table: its storage, its rows, and its view with the view's session once it has one. */
  private final case class Live(rdd: RDD[Row], rows: Long, view: Option[(String, SparkSession)])

  private val live         = mutable.LinkedHashMap.empty[String, Live]
  private var maxLive      = 0L
  private var written      = 0L
  private val roundRowsBuf = mutable.ArrayBuffer.empty[Long]

  /** Materialise a DataFrame (truncating lineage) as the live table `name`.
    *
    * Counting the locally checkpointed RDD fills its checkpoint in one Spark
    * job, the query's final stage. Under AQE, taking the rows (`.rdd`) has
    * already run the query's shuffle stages as jobs of their own, so timing
    * a table's write must span both calls.
    *
    * Checkpointing the DataFrame itself would not do:
    * Spark copies the *estimated* statistics of the original plan onto the
    * checkpointed LogicalRDD (`LogicalRDD.rewriteStatsAndConstraints`). Join
    * estimates multiply, so materialising round after round compounds
    * `sizeInBytes` into BigInts whose digit count triples per round — after
    * ~12 rounds the driver spends minutes multiplying million-digit numbers
    * during planning. Wrapping the checkpointed RDD in a fresh DataFrame
    * resets the stats to the session default each round, keeping planning
    * O(1) per round. `Dataset.rdd` is cached per Dataset, so the rows are
    * taken through a fresh one (`toDF`): a DataFrame materialised twice gets
    * two tables, and dropping one leaves the other.
    *
    * A write that fails frees every live table, its own partial checkpoint
    * included, and rethrows: its query throws, in the shuffle stages that
    * AQE runs when the rows are taken or in the count, or the live rows
    * pass the cap ([[BlowUpException]]).
    */
  def materialize(name: String, df: DataFrame): Table = {
    require(!live.contains(name), s"$algoName: table $name is already live")
    try {
      val rdd = df.toDF().rdd.localCheckpoint() // under AQE this already runs the shuffle stages
      live(name) = Live(rdd, 0L, None)          // in the ledger while it is filled
      val rows = rdd.count()
      live(name) = Live(rdd, rows, None)
      written += rows
      val total = liveRows
      if (total > maxLive) maxLive = total
      if (total > capRows) throw BlowUpException(algoName, total, capRows)
      Table(name, df.sparkSession.createDataFrame(rdd, df.schema), rows)
    } catch { case e: Throwable => dropAll(); throw e }
  }

  /** The name of a live table in SQL text: a temp view, named after its RDD
    * (unique in the SparkContext), registered in the table's own session the
    * first time it is asked for. A table never named in SQL registers no view.
    */
  def view(table: Table): String = {
    val entry = liveEntry(table)
    entry.view match {
      case Some((name, _)) => name
      case None =>
        val name = s"t${entry.rdd.id}_${table.name}"
        table.df.createOrReplaceTempView(name)
        live(table.name) = entry.copy(view = Some(name -> table.df.sparkSession))
        name
    }
  }

  /** `DROP TABLE`: the table's storage is freed, so a later read of it fails,
    * and its view is dropped. Only a live table can be dropped.
    */
  def drop(table: Table): Unit = {
    free(liveEntry(table))
    live.remove(table.name)
  }

  /** `DROP TABLE` of every live table. The space metrics are kept. */
  def dropAll(): Unit = {
    live.valuesIterator.foreach(free)
    live.clear()
  }

  private def liveEntry(table: Table): Live =
    live.getOrElse(table.name, throw new IllegalArgumentException(s"$algoName: table ${table.name} is not live"))

  private def free(entry: Live): Unit = {
    entry.view.foreach { case (name, session) => session.catalog.dropTempView(name) }
    entry.rdd.unpersist(blocking = true)
  }

  /** Record a round by the rows of the table it leaves (RC: E, whose shrink is γ); one entry per round. */
  def recordRound(edgeRows: Long): Unit = roundRowsBuf += edgeRows

  def maxLiveRows: Long        = maxLive
  def totalWrittenRows: Long   = written
  def liveRows: Long           = live.valuesIterator.map(_.rows).sum
  def roundEdgeRows: Seq[Long] = roundRowsBuf.toSeq
}
