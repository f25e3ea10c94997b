package repro.gf

/** Affine hashing over the prime field GF(p), p = 2^31 - 1.
  *
  * This is the paper's "SQL-only" fallback for databases without a native
  * GF(2^64) UDF: pick a prime p larger than any vertex ID and evaluate
  * h(x) = (A*x + B) mod p with ordinary integer arithmetic. With A in
  * [1, p) the map is a bijection on [0, p).
  *
  * p = 2^31 - 1 keeps A*x below 2^62, so the product never overflows a
  * signed 64-bit long — the whole map is expressible as plain Spark SQL
  * arithmetic (no UDF at all).
  */
object ModP {

  /** The Mersenne prime 2^31 - 1. */
  final val P: Long = 2147483647L
}
