package repro.bitcoin

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.GraphOps

/** Synthetic blockchain substrate (paper §VII-A imported the real 250 GB
  * Bitcoin chain; we synthesise a structurally equivalent one, DESIGN.md §4).
  *
  * The relational schema mirrors how a chain is stored in a database:
  *
  *   - `transactions(tx_id, block_no)`
  *   - `outputs(out_id, tx_id, addr_id)`   — every tx creates `OutsPerTx` outputs
  *   - `inputs(tx_id, out_id)`             — spends of *earlier* outputs
  *
  * Shape knobs reproduce the statistics the paper's graphs depend on:
  * heavy-tailed input counts per transaction (most txs spend 1–2 outputs, a
  * few consolidate many — these multi-input txs are what the clustering
  * heuristic merges on) and zipf-like address reuse (a few exchange-style
  * addresses appear in many outputs), which yields the scale-free component
  * size distribution of Fig. 5.
  */
object BitcoinSynth {

  /** Outputs created per transaction (fixed so out_id ↔ tx_id is arithmetic). */
  val OutsPerTx = 2L

  /** ID-space offsets so tx / output / address vertex IDs never collide. */
  val OutOffset  = 1L << 40
  val AddrOffset = 1L << 41

  final case class Chain(transactions: DataFrame, outputs: DataFrame, inputs: DataFrame)

  /** Generate a chain with `nTx` transactions over `nAddr` base addresses. */
  def chain(spark: SparkSession, nTx: Long, nAddr: Long): Chain = {
    val seed = 0xB17C01L // fixed: a chain is determined by its size
    // Note: `/` on long columns is floating-point division in Spark SQL —
    // use floor+cast for the integer id arithmetic throughout.
    val txs = GraphOps.range(spark, nTx).select(col("id").as("tx_id"),
      floor(col("id") / 100).cast("long").as("block_no"))

    // Addresses: 60% fresh (unique per output), 40% reused with zipf-ish skew
    // (quadratic inverse-CDF concentrates mass on low address IDs).
    val outs = GraphOps.range(spark, nTx * OutsPerTx).select(
      col("id").as("out_id"),
      floor(col("id") / OutsPerTx).cast("long").as("tx_id"),
      when(rand(seed) < 0.6, col("id") + nAddr)
        .otherwise((pow(rand(seed + 1), 3.0) * nAddr).cast("long")).as("addr_id"))

    // Inputs: transactions after a coinbase warm-up spend earlier outputs.
    // Input count per tx is heavy-tailed: floor(1/u) capped at 16 gives
    // P(k inputs) ~ 1/k^2. Spent out_ids are sampled uniformly below the
    // spender's own first output, guaranteeing temporal validity.
    val maxIn = 16
    val perTx = txs.where(col("tx_id") >= 16) // first txs are coinbase-only
      .select(col("tx_id"),
        least(lit(maxIn.toLong), floor(lit(1.0) / (rand(seed + 2) + 1e-9)).cast("long")).as("n_in"))
    val ins = perTx
      .select(col("tx_id"), explode(sequence(lit(1), col("n_in").cast("int"))).as("i"))
      .select(col("tx_id"),
        (rand(seed + 3) * (col("tx_id") * OutsPerTx)).cast("long").as("out_id"))
      .distinct() // a tx cannot spend the same output twice
    Chain(txs, outs, ins)
  }

  /** The "Bitcoin addresses" graph (paper §VII-A): link every address to each
    * transaction that spends one of its outputs — the multi-input clustering
    * heuristic [Meiklejohn et al. 2013]. Connected components are address
    * clusters assumed to be controlled by one entity. Bipartite: address
    * vertices are offset so they cannot collide with tx vertices.
    *
    * Pure SQL over the chain tables, as the paper runs it in-database.
    */
  def addressGraph(c: Chain): DataFrame = {
    val spends = c.inputs.select(col("out_id"), col("tx_id").as("spender_tx"))
    spends.join(c.outputs.select(col("out_id"), col("addr_id")), "out_id")
      .select((col("addr_id") + AddrOffset).as("v"), col("spender_tx").as("w"))
      .distinct()
  }

  /** The full Bitcoin transaction graph: transactions and outputs as a
    * bipartite graph — each output linked to its creating tx and to the tx
    * spending it (if any).
    */
  def fullGraph(c: Chain): DataFrame = {
    val created = c.outputs.select(col("tx_id").as("v"), (col("out_id") + OutOffset).as("w"))
    val spent   = c.inputs.select((col("out_id") + OutOffset).as("v"), col("tx_id").as("w"))
    created.union(spent).distinct()
  }
}
