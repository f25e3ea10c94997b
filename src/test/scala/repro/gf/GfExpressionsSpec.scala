package repro.gf

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{Encryption, FiniteField64, FinitePrimeField}
import repro.testutil.Graphs
import scala.util.Random

/** The registered functions must agree with their driver-side counterparts
  * whether invoked through SQL text, as RC and the image graph builder call
  * them, or through `call_function`. So must GF(p)'s hash, which RC runs as
  * plain SQL arithmetic.
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
    val key              = GfFunctions.key(k0, k1, k2, k3)
    val xs               = Seq.fill(100)(rng.nextLong())
    import spark.implicits._
    val got = xs.toDF("x")
      .select(call_function("xtea_enc", col("x"), lit(key)).as("y"))
      .collect().map(_.getLong(0))
    val want = xs.map(Xtea.encrypt(_, k0, k1, k2, k3))
    assert(got.toSeq == want)
    val round = Encryption.Round(k0, k1, k2, k3).hash("x")
    assert(xs.toDF("x").selectExpr(s"$round as y").collect().map(_.getLong(0)).toSeq == want)
  }

  test("gf64_affine matches Gf64.axb for negative and extreme keys") {
    val rng  = new Random(14)
    val keys = Seq(Long.MinValue, -1L, 1L, Long.MaxValue, -(rng.nextLong() & Long.MaxValue) - 1L)
    val xs   = Seq(0L, 1L, -1L, Long.MaxValue, Long.MinValue) ++ Seq.fill(20)(rng.nextLong())
    import spark.implicits._
    val df   = xs.toDF("x")
    assert(GfFunctions.sqlLiteral(GfFunctions.key(1L, -2L)) == "X'0000000000000001FFFFFFFFFFFFFFFE'")
    for (a <- keys; b <- keys :+ 0L) {
      val want = xs.map(Gf64.axb(a, _, b))
      val viaColumn = df.select(call_function("gf64_affine", lit(GfFunctions.key(a, b)), col("x")))
      assert(viaColumn.collect().map(_.getLong(0)).toSeq == want, s"a=$a b=$b")
      val viaSql = df.selectExpr(FiniteField64.Round(a, b).hash("x"))
      assert(viaSql.collect().map(_.getLong(0)).toSeq == want, s"a=$a b=$b")
    }
  }

  test("gf64_affine propagates nulls") {
    val key = GfFunctions.sqlLiteral(GfFunctions.key(7L, 9L))
    assert(spark.sql(s"select gf64_affine($key, cast(null as bigint)) as y").head().isNullAt(0))
  }

  test("a key that is not 16 bytes fails the query") {
    for (query <- Seq("select gf64_affine(X'0102', id) from range(3)",
                      s"select gf64_affine(${GfFunctions.sqlLiteral(new Array[Byte](17))}, id) from range(3)",
                      "select xtea_enc(id, X'00000001000000020000000300') from range(3)")) {
      val e = intercept[Exception](spark.sql(query).collect())
      assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
        .exists(c => String.valueOf(c.getMessage).contains("a key must be 16 bytes")), query)
    }
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
    val r = Graphs.pairs(e.groupBy(col("v"))
      .agg(least(call_function("gf64_axb", lit(3L), col("v"), lit(5L)),
                 min(call_function("gf64_axb", lit(3L), col("w"), lit(5L)))).as("r"))).toMap
    val h  = (x: Long) => Gf64.axb(3L, x, 5L)
    assert(r(1L) == Seq(h(1), h(2), h(3)).min)
    assert(r(2L) == Seq(h(2), h(1)).min)
  }
}
