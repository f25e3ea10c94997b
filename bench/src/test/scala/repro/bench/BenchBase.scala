package repro.bench

import repro.SparkSpec

/** Base for bench suites: moderate shuffle width for ~10⁵-row datasets and a
  * one-off warm-up so JIT/codegen cost is not billed to the first table cell.
  */
trait BenchBase extends SparkSpec {
  override protected def shufflePartitions: Int = 8

  override def beforeAll(): Unit = {
    super.beforeAll()
    BenchBase.warmupOnce(spark)
  }
}

object BenchBase {
  @volatile private var warmed = false
  def warmupOnce(spark: org.apache.spark.sql.SparkSession): Unit = synchronized {
    if (!warmed) {
      repro.harness.BenchHarness.warmup(spark)
      warmed = true
    }
  }
}
