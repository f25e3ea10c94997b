package repro.gf

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.FinitePrimeField
import scala.util.Random

/** The registered functions must agree with their driver-side counterparts
  * whether invoked through `call_function` or through SQL text — both call
  * paths are exercised by the algorithms. So must GF(p)'s hash, which RC runs
  * as plain SQL arithmetic.
  */
class GfExpressionsSpec extends SparkSpec {

  override def beforeAll(): Unit = {
    super.beforeAll()
    GfFunctions.ensureRegistered(spark)
  }

  test("gf64_axb via call_function matches Gf64.axb") {
    val rng  = new Random(11)
    val a    = rng.nextLong() | 1L
    val b    = rng.nextLong()
    val xs   = Seq.fill(200)(rng.nextLong())
    import spark.implicits._
    val got = xs.toDF("x")
      .select(call_function("gf64_axb", lit(a), col("x"), lit(b)).as("y"))
      .collect().map(_.getLong(0))
    assert(got.toSeq == xs.map(Gf64.axb(a, _, b)))
  }

  test("gf64_axb via SQL text matches Gf64.axb") {
    import spark.implicits._
    Seq(0L, 1L, -1L, 42L, Long.MaxValue, Long.MinValue).toDF("x").createOrReplaceTempView("gfe_xs")
    val got = spark.sql(s"select gf64_axb(7, x, 9) as y from gfe_xs").collect().map(_.getLong(0))
    val want = Seq(0L, 1L, -1L, 42L, Long.MaxValue, Long.MinValue).map(Gf64.axb(7L, _, 9L))
    assert(got.toSeq == want)
  }

  test("gf64_axb registration is idempotent") {
    GfFunctions.ensureRegistered(spark)
    GfFunctions.ensureRegistered(spark)
    assert(spark.sql("select gf64_axb(1, 5, 0) as y").head().getLong(0) == 5L)
  }

  test("GF(p) round hash SQL matches ModP.axb on in-range IDs") {
    val rng   = new Random(12)
    val round = FinitePrimeField.Round(1L + rng.nextLong(ModP.P - 1), rng.nextLong(ModP.P))
    val xs    = Seq(0L, 1L, ModP.P - 1) ++ Seq.fill(100)(rng.nextLong(ModP.P))
    import spark.implicits._
    val got = xs.toDF("x").selectExpr(s"${round.hash("x")} as y").collect().map(_.getLong(0))
    assert(got.toSeq == xs.map(ModPLaws.axb(round.a, _, round.b)))
  }

  test("xtea_enc matches Xtea.encrypt") {
    val rng              = new Random(13)
    val (k0, k1, k2, k3) = (rng.nextInt(), rng.nextInt(), rng.nextInt(), rng.nextInt())
    val xs               = Seq.fill(100)(rng.nextLong())
    import spark.implicits._
    val got = xs.toDF("x")
      .select(call_function("xtea_enc", col("x"),
        lit(k0.toLong), lit(k1.toLong), lit(k2.toLong), lit(k3.toLong)).as("y"))
      .collect().map(_.getLong(0))
    assert(got.toSeq == xs.map(Xtea.encrypt(_, k0, k1, k2, k3)))
  }

  test("gf64_axb rejects a literal outside bigint instead of wrapping it") {
    val e = intercept[Exception] {
      spark.sql("select gf64_axb(12345678901234567890, 7L, 0L) as y").collect()
    }
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .exists(c => String.valueOf(c.getMessage).contains("CAST_OVERFLOW")), e)
  }

  test("gf64_axb propagates nulls") {
    val got = spark.sql("select gf64_axb(7, cast(null as bigint), 9) as y").head()
    assert(got.isNullAt(0))
  }

  test("gf64_axb works inside an aggregate over a grouping key (RC's R query)") {
    import spark.implicits._
    val e = Seq((1L, 2L), (1L, 3L), (2L, 1L)).toDF("v", "w")
    val r = e.groupBy(col("v"))
      .agg(least(call_function("gf64_axb", lit(3L), col("v"), lit(5L)),
                 min(call_function("gf64_axb", lit(3L), col("w"), lit(5L)))).as("r"))
      .collect().map(x => x.getLong(0) -> x.getLong(1)).toMap
    val h  = (x: Long) => Gf64.axb(3L, x, 5L)
    assert(r(1L) == Seq(h(1), h(2), h(3)).min)
    assert(r(2L) == Seq(h(2), h(1)).min)
  }
}
