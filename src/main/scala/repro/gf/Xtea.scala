package repro.gf

/** XTEA block cipher on 64-bit blocks with a 128-bit key.
  *
  * Stands in for Blowfish in the paper's "encryption method" (§V-C): any
  * pseudo-random *bijection* on the 64-bit vertex-ID domain works, and XTEA
  * is a standard 64-bit block cipher that is small enough to implement as an
  * engine-level function. 32 rounds (the reference cycle count).
  *
  * The substitution is documented in DESIGN.md §4; the property the algorithm
  * needs — bijectivity (so representatives are uniquely ordered) plus strong
  * diffusion — is covered by tests (round-trip decryption, avalanche).
  */
object Xtea {

  private[gf] final val Delta  = 0x9e3779b9 // golden-ratio round constant
  private[gf] final val Rounds = 32

  /** Encrypt a 64-bit block under key (k0..k3). */
  def encrypt(block: Long, k0: Int, k1: Int, k2: Int, k3: Int): Long = {
    val key = Array(k0, k1, k2, k3)
    var v0  = (block >>> 32).toInt
    var v1  = block.toInt
    var sum = 0
    var i   = 0
    while (i < Rounds) {
      v0 += (((v1 << 4) ^ (v1 >>> 5)) + v1) ^ (sum + key(sum & 3))
      sum += Delta
      v1 += (((v0 << 4) ^ (v0 >>> 5)) + v0) ^ (sum + key((sum >>> 11) & 3))
      i += 1
    }
    (v0.toLong << 32) | (v1.toLong & 0xffffffffL)
  }
}
