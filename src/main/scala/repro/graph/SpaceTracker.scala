package repro.graph

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
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

/** A live table: the handle its write returned, its storage, and its view's name once it has one. */
private[graph] final case class Live(table: Table, rdd: RDD[Row], view: Option[String])

/** A successful write: the table's rows, the live rows after it, and whether the table ends a round. */
private[graph] final case class Write(rows: Long, liveRows: Long, endsRound: Boolean)

/** The one place an algorithm's tables are written and freed, and the one record of its writes.
  *
  * [[materialize]] plays the `CREATE TABLE` of the paper's SQL scripts
  * (localCheckpoint = write the table, count = its row count), [[endRound]]
  * plays it for the table that ends a round, and [[drop]] plays `DROP TABLE`,
  * freeing the table's storage. The paper's figures are reads of the record:
  *
  *   - maximum live rows at any instant → Table IV "maximum space used";
  *   - total rows ever written          → Table V "total gigabytes written"
  *     (what a transaction would have to retain);
  *   - each round's table rows          → Table I's rounds and shrink γ.
  *
  * So Spark holds the blocks of the live tables only, as a database holds
  * the tables not yet dropped. [[view]] gives a live table its name in SQL,
  * and [[drop]] ends both; each takes only the handle the write returned.
  * [[dropAll]] frees them all: the tracker's owner calls it once done with
  * the tables, and a failed write calls it, so a failed run leaves nothing
  * cached and no view registered.
  */
final class SpaceTracker(val capRows: Long = Long.MaxValue, val algoName: String = "") {
  private val live   = mutable.LinkedHashMap.empty[String, Live]
  private val writes = mutable.ArrayBuffer.empty[Write]

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
    * pass the cap ([[BlowUpException]]); only a write past the cap is recorded.
    */
  def materialize(name: String, df: DataFrame): Table = write(name, df, endsRound = false)

  /** [[materialize]] the table that ends a round: its rows are the round's entry in [[roundEdgeRows]]. */
  def endRound(name: String, df: DataFrame): Table = write(name, df, endsRound = true)

  private def write(name: String, df: DataFrame, endsRound: Boolean): Table = {
    require(!live.contains(name), s"$algoName: table $name is already live")
    try {
      val rdd   = df.toDF().rdd.localCheckpoint() // under AQE this already runs the shuffle stages
      val rows  = try rdd.count() catch { case e: Throwable => rdd.unpersist(blocking = true); throw e }
      val table = Table(name, df.sparkSession.createDataFrame(rdd, df.schema), rows)
      live(name) = Live(table, rdd, None)
      writes += Write(rows, liveRows, endsRound)
      if (liveRows > capRows) throw BlowUpException(algoName, liveRows, capRows)
      table
    } catch { case e: Throwable => dropAll(); throw e }
  }

  /** The name of a live table in SQL text: a temp view, named after its RDD
    * (unique in the SparkContext), registered in the table's own session the
    * first time it is asked for. A table never named in SQL registers no view.
    */
  def view(table: Table): String = {
    val entry = liveEntry(table)
    entry.view.getOrElse {
      val name = s"t${entry.rdd.id}_${table.name}"
      table.df.createOrReplaceTempView(name)
      live(table.name) = entry.copy(view = Some(name))
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

  /** `DROP TABLE` of every live table. The space figures are kept. */
  def dropAll(): Unit = {
    live.valuesIterator.foreach(free)
    live.clear()
  }

  private def liveEntry(table: Table): Live =
    live.get(table.name).filter(_.table eq table)
      .getOrElse(throw new IllegalArgumentException(s"$algoName: table ${table.name} is not live"))

  private def free(entry: Live): Unit = {
    entry.view.foreach(entry.table.df.sparkSession.catalog.dropTempView)
    entry.rdd.unpersist(blocking = true)
  }

  def maxLiveRows: Long      = writes.iterator.map(_.liveRows).maxOption.getOrElse(0L)
  def totalWrittenRows: Long = writes.iterator.map(_.rows).sum
  def liveRows: Long         = live.valuesIterator.map(_.table.rows).sum
  /** The rows of each round's table (RC: E, whose shrink is γ); a write past the cap ends no round. */
  def roundEdgeRows: Seq[Long] = writes.iterator.filter(w => w.endsRound && w.liveRows <= capRows).map(_.rows).toSeq
}
