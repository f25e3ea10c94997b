package repro.bench

import repro.SparkSpec

/** Base for bench suites: moderate shuffle width for ~10⁵-row datasets and a
  * one-off warm-up so JIT/codegen cost is not billed to the first table cell.
  */
trait BenchBase extends SparkSpec {
  override protected def shufflePartitions: Int = 8

  override def beforeAll(): Unit = {
    super.beforeAll()
    BenchBase.warmup
  }
}

object BenchBase {
  /** One warm-up per JVM: the first suite's `beforeAll` forces it. */
  private lazy val warmup: Unit = repro.harness.BenchHarness.warmup(SparkSpec.shared)
}
