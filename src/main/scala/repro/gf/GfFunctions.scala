package repro.gf

import java.nio.ByteBuffer
import java.util.{Collections, WeakHashMap}
import org.apache.spark.sql.SparkSession

/** The engine functions of the randomisation bijections.
  *
  * The paper loads its finite-field arithmetic into the database as a C UDF
  * (`axplusb`, Fig. 7, via `CREATE FUNCTION`); Spark's equivalent is
  * `spark.udf.register`. RC calls the functions by name in its SQL text, the
  * image graph builder through a GF(2^64) round's `hash`. RC's functions take a round's
  * keys as one 16-byte BINARY literal: codegen prints a `bigint` literal into
  * the generated Java, which made each round's queries new classes to compile,
  * but passes a BINARY one by reference, so each query shape compiles once for
  * all rounds and seeds (DESIGN.md §2). GF(p)'s keys are plain `bigint`s.
  */
object GfFunctions {
  /** The sessions the functions are registered in, by identity; a session
    * that is no longer reachable leaves the set.
    */
  private val registered =
    Collections.newSetFromMap(new WeakHashMap[SparkSession, java.lang.Boolean])

  /** `key` as an SQL BINARY literal, `X'…'`. */
  def sqlLiteral(key: Array[Byte]): String = key.map(b => f"$b%02X").mkString("X'", "", "'")

  /** `gf64_affine`'s key: A then B, each 8 bytes big-endian. */
  def key(a: Long, b: Long): Array[Byte] = ByteBuffer.allocate(16).putLong(a).putLong(b).array()

  /** `xtea_enc`'s key: k0…k3, each 4 bytes big-endian. */
  def key(k0: Int, k1: Int, k2: Int, k3: Int): Array[Byte] =
    ByteBuffer.allocate(16).putInt(k0).putInt(k1).putInt(k2).putInt(k3).array()

  /** The words of a 16-byte `key`; a key of another length fails the query. */
  private def words(key: Array[Byte]): ByteBuffer = {
    require(key.length == 16, s"a key must be 16 bytes, not ${key.length}")
    ByteBuffer.wrap(key)
  }

  /** Registers in `spark`'s session, once per session:
    *  - `gf64_affine(key, x)` = A·x + B over GF(2^64);
    *  - `gf64_axb(a, x, b)`, the same map with `bigint` keys;
    *  - `xtea_enc(x, key)`, XTEA under the key k0…k3.
    *
    * Spark widens int arguments to `bigint` and rejects values that do not fit
    * one. Registering again would replace each function with an identical one
    * and log a warning; `spark.catalog.functionExists` would cost a cold
    * external-catalog initialisation (about a second) on a session's first
    * call, so the registered sessions are remembered here instead.
    */
  def ensureRegistered(spark: SparkSession): Unit = registered.synchronized {
    if (!registered.contains(spark)) {
      spark.udf.register("gf64_affine", (key: Array[Byte], x: Long) => {
        val k = words(key)
        Gf64.axb(k.getLong(0), x, k.getLong(8))
      })
      spark.udf.register("gf64_axb", (a: Long, x: Long, b: Long) => Gf64.axb(a, x, b))
      spark.udf.register("xtea_enc", (x: Long, key: Array[Byte]) => {
        val k = words(key)
        Xtea.encrypt(x, k.getInt(0), k.getInt(4), k.getInt(8), k.getInt(12))
      })
      registered.add(spark)
    }
  }
}
