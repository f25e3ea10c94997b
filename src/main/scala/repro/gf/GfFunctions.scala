package repro.gf

import java.util.{Collections, WeakHashMap}
import org.apache.spark.sql.SparkSession

/** The engine functions of the randomisation bijections.
  *
  * The paper loads its finite-field arithmetic into the database as a C UDF
  * (`axplusb`, Fig. 7, via `CREATE FUNCTION`); Spark's equivalent is
  * `spark.udf.register`. RC calls the functions by name in its SQL text, the
  * image graph builder through `call_function`. Every parameter is `Long`, so
  * Spark widens int literals and rejects values that do not fit a `bigint`.
  */
object GfFunctions {
  /** The sessions the functions are registered in, by identity; a session
    * that is no longer reachable leaves the set.
    */
  private val registered =
    Collections.newSetFromMap(new WeakHashMap[SparkSession, java.lang.Boolean])

  /** Registers `gf64_axb(a, x, b)` = a·x + b over GF(2^64) and
    * `xtea_enc(x, k0, k1, k2, k3)` in `spark`'s session, once per session.
    * Registering again would replace each function with an identical one and
    * log a warning; `spark.catalog.functionExists` would cost a cold
    * external-catalog initialisation (about a second) on a session's first
    * call, so the registered sessions are remembered here instead.
    */
  def ensureRegistered(spark: SparkSession): Unit = registered.synchronized {
    if (!registered.contains(spark)) {
      spark.udf.register("gf64_axb", (a: Long, x: Long, b: Long) => Gf64.axb(a, x, b))
      spark.udf.register("xtea_enc", (x: Long, k0: Long, k1: Long, k2: Long, k3: Long) =>
        Xtea.encrypt(x, k0.toInt, k1.toInt, k2.toInt, k3.toInt))
      registered.add(spark)
    }
  }
}
