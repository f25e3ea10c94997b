package repro.bitcoin

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.RandomisedContraction
import repro.graph.{GraphOps, LocalUnionFind}
import repro.testutil.Graphs

class BitcoinSpec extends SparkSpec {

  private lazy val chain = BitcoinSynth.chain(spark, nTx = 2000, nAddr = 500)

  test("chain schema: transactions, outputs, inputs") {
    assert(chain.transactions.columns.toSeq == Seq("tx_id", "block_no"))
    assert(chain.outputs.columns.toSeq == Seq("out_id", "tx_id", "addr_id"))
    assert(chain.inputs.columns.toSeq == Seq("tx_id", "out_id"))
  }

  test("every transaction creates OutsPerTx outputs") {
    val counts = chain.outputs.groupBy(col("tx_id")).count().select(col("count")).distinct()
      .collect().map(_.getLong(0)).toSeq
    assert(counts == Seq(BitcoinSynth.OutsPerTx))
  }

  test("inputs only spend outputs created by earlier transactions") {
    val violations = chain.inputs
      .where(col("out_id") >= col("tx_id") * BitcoinSynth.OutsPerTx)
      .count()
    assert(violations == 0L, "a transaction spent a not-yet-created output")
  }

  test("no transaction spends the same output twice") {
    val dups = chain.inputs.groupBy(col("tx_id"), col("out_id")).count().where(col("count") > 1).count()
    assert(dups == 0L)
  }

  test("input counts are heavy-tailed (multi-input consolidations exist)") {
    val perTx = chain.inputs.groupBy(col("tx_id")).count().select(col("count"))
      .collect().map(_.getLong(0))
    assert(perTx.max >= 4, "no multi-input transactions — clustering heuristic has nothing to merge")
    assert(perTx.count(_ == 1L).toDouble / perTx.length > 0.3, "most txs should be small")
  }

  test("generation is deterministic") {
    val a = BitcoinSynth.chain(spark, nTx = 300, nAddr = 100)
    val b = BitcoinSynth.chain(spark, nTx = 300, nAddr = 100)
    assert(a.inputs.collect().toSeq == b.inputs.collect().toSeq)
    assert(a.outputs.collect().toSeq == b.outputs.collect().toSeq)
  }

  test("addressGraph vertex spaces are disjoint (addresses offset above txs)") {
    val g = BitcoinSynth.addressGraph(chain)
    assert(g.where(col("v") < BitcoinSynth.AddrOffset).count() == 0L)
    assert(g.where(col("w") >= BitcoinSynth.OutOffset).count() == 0L)
  }

  test("addressGraph equals the same clustering join in DuckDB (Oracle)") {
    val g = BitcoinSynth.addressGraph(chain).orderBy(col("v"), col("w"))
    Oracle.assertEquivalent(g,
      s"""SELECT DISTINCT CAST(o.addr_id AS BIGINT) + ${BitcoinSynth.AddrOffset} AS v,
         |       CAST(i.tx_id AS BIGINT) AS w
         |FROM inputs i JOIN outputs o ON i.out_id = o.out_id""".stripMargin,
      "inputs" -> chain.inputs, "outputs" -> chain.outputs)
  }

  test("multi-input heuristic on a handcrafted chain clusters the right addresses") {
    import spark.implicits._
    // tx 100 spends outputs 0 and 2, owned by addresses A=1 and B=2 → A,B same
    // entity. tx 200 spends output 4 (address C=3) alone → C separate.
    val txs  = Seq((100L, 0L), (200L, 0L)).toDF("tx_id", "block_no")
    val outs = Seq((0L, 0L, 1L), (2L, 1L, 2L), (4L, 2L, 3L)).toDF("out_id", "tx_id", "addr_id")
    val ins  = Seq((100L, 0L), (100L, 2L), (200L, 4L)).toDF("tx_id", "out_id")
    val g    = BitcoinSynth.addressGraph(BitcoinSynth.Chain(txs, outs, ins))
    val run  = RandomisedContraction().run(g, seed = 3L)
    val norm = Graphs.pairs(GraphOps.normalizeLabels(run.labels)).toMap
    val off = BitcoinSynth.AddrOffset
    assert(norm(off + 1L) == norm(off + 2L), "addresses 1 and 2 must cluster")
    assert(norm(off + 1L) != norm(off + 3L), "address 3 must stay separate")
  }

  test("fullGraph links outputs to creating and spending txs") {
    val g     = BitcoinSynth.fullGraph(chain)
    val edges = Graphs.pairs(g)
    val nOuts = chain.outputs.count()
    val nIns  = chain.inputs.count()
    assert(edges.length == nOuts + nIns) // distinct keys by construction
  }

  test("addressGraph components are scale-free-ish (Fig. 5 shape)") {
    val g  = BitcoinSynth.addressGraph(BitcoinSynth.chain(spark, nTx = 8000, nAddr = 2000))
    val uf = LocalUnionFind.fromEdges(Graphs.pairs(g))
    val sizes = uf.componentSizes.values.toSeq
    assert(sizes.count(_ == sizes.min) > sizes.count(_ > sizes.min * 4),
      "small components must vastly outnumber large ones")
    assert(sizes.max > 20, "reuse must create at least one large cluster")
  }

  test("RC labels the address graph identically to union-find") {
    val g     = BitcoinSynth.addressGraph(chain).localCheckpoint(true)
    val edges = Graphs.pairs(g)
    val run   = RandomisedContraction().run(g, seed = 11L)
    Graphs.assertPartition(run.labels, edges)
  }
}
