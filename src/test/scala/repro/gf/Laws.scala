package repro.gf

/** The rest of GF(2^64)'s arithmetic, which only the field-law tests use:
  * the algorithms need [[Gf64.axb]] alone.
  */
object Gf64Laws {

  /** Multiplicative identity. */
  final val One: Long = 1L

  /** Field multiplication. */
  def mul(a: Long, x: Long): Long = Gf64.axb(a, x, 0L)

  /** Field addition (= subtraction = XOR). */
  def add(a: Long, b: Long): Long = a ^ b

  /** a^e by square-and-multiply (exponent treated as unsigned). */
  def pow(a: Long, e: Long): Long = {
    var base = a
    var exp  = e
    var acc  = One
    while (exp != 0L) {
      if ((exp & 1L) != 0L) acc = mul(acc, base)
      base = mul(base, base)
      exp >>>= 1
    }
    acc
  }

  /** Multiplicative inverse of a non-zero element, via Fermat: a^(2^64 - 2).
    *
    * The multiplicative group has order 2^64 - 1, so a^(2^64 - 2) = a^(-1).
    */
  def inv(a: Long): Long = {
    require(a != 0L, "0 has no multiplicative inverse in GF(2^64)")
    // 2^64 - 2 as an unsigned 64-bit value is 0xFFFF...FE == -2L.
    pow(a, -2L)
  }

  /** Inverse of the affine map y = A*x + B: x = A^(-1) * (y - B). */
  def invAxb(a: Long, y: Long, b: Long): Long = mul(inv(a), y ^ b)
}

/** GF(p)'s affine map and inverse on the driver, the reference the SQL
  * expression of `FinitePrimeField` is tested against.
  */
object ModPLaws {
  import ModP.P

  /** (a*x + b) mod p. Requires 0 <= x < p. */
  def axb(a: Long, x: Long, b: Long): Long = {
    require(x >= 0 && x < P, s"vertex ID $x outside [0, $P) — GF(p) method needs small IDs")
    (a % P * (x % P) + b % P) % P
  }

  /** Multiplicative inverse mod p via Fermat: a^(p-2) mod p. */
  def inv(a0: Long): Long = {
    val a = ((a0 % P) + P) % P
    require(a != 0L, "0 has no inverse mod p")
    var base = a
    var e    = P - 2
    var acc  = 1L
    while (e != 0L) {
      if ((e & 1L) != 0L) acc = acc * base % P
      base = base * base % P
      e >>= 1
    }
    acc
  }
}

/** XTEA decryption, which shows [[Xtea.encrypt]] is a bijection. */
object XteaLaws {
  import Xtea.{Delta, Rounds}

  /** Decrypt a 64-bit block under key (k0..k3). Inverse of [[Xtea.encrypt]]. */
  def decrypt(block: Long, k0: Int, k1: Int, k2: Int, k3: Int): Long = {
    val key = Array(k0, k1, k2, k3)
    var v0  = (block >>> 32).toInt
    var v1  = block.toInt
    var sum = Delta * Rounds
    var i   = 0
    while (i < Rounds) {
      v1 -= (((v0 << 4) ^ (v0 >>> 5)) + v0) ^ (sum + key((sum >>> 11) & 3))
      sum -= Delta
      v0 -= (((v1 << 4) ^ (v1 >>> 5)) + v1) ^ (sum + key(sum & 3))
      i += 1
    }
    (v0.toLong << 32) | (v1.toLong & 0xffffffffL)
  }
}
