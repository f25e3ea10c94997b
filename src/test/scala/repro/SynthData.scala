package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** A synthetic TPC-H-like orders table (`o_orderkey`, `o_custkey`) at a
  * configurable scale factor.
  *
  * SF=1.0 has TPC-H SF1's 1.5 M orders over 150 k customers. Tests use
  * SF<=0.01. The generator is deterministic in (sf, seed) so the DuckDB
  * oracle sees identical input.
  */
object SynthData {
  private val NOrdersPerSf   = 1_500_000L
  private val NCustomerPerSf =   150_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def orders(spark: SparkSession, sf: Double = 0.01, seed: Long = 1): DataFrame = {
    import spark.implicits._
    val nCust = n(NCustomerPerSf, sf)
    spark.range(1, n(NOrdersPerSf, sf) + 1).toDF("o_orderkey").select(
      $"o_orderkey",
      (rand(seed) * nCust + 1).cast(LongType) as "o_custkey",
    )
  }
}
