package repro.gf

/** Arithmetic over the finite field GF(2^64).
  *
  * Elements are 64-bit machine words interpreted as polynomials over GF(2);
  * multiplication is carry-less multiplication reduced modulo the irreducible
  * polynomial x^64 + x^4 + x^3 + x + 1 — the same polynomial (`0x1b`) as the
  * paper's C user-defined function `axplusb` (Fig. 7), of which [[axb]] is a
  * line-for-line port.
  *
  * The Randomised Contraction paper uses the affine map h(x) = A*x + B over
  * this field (A != 0) as a cheap random bijection on 64-bit vertex IDs: the
  * map is invertible because every non-zero A has a multiplicative inverse.
  * Comparisons of h-values are done in plain signed-integer order, exactly as
  * the paper stores the field element back into an int64 column.
  */
object Gf64 {

  /** The low bits of the irreducible polynomial x^64 + x^4 + x^3 + x + 1. */
  final val IrrPoly: Long = 0x1bL

  /** A*x + B over GF(2^64). Direct port of the paper's `axplusb` C UDF. */
  def axb(a0: Long, x0: Long, b: Long): Long = {
    var a = a0
    var x = x0
    var r = 0L
    while (x != 0L) {
      if ((x & 1L) != 0L) r ^= a
      a = if ((a & Long.MinValue) != 0L) (a << 1) ^ IrrPoly else a << 1
      x >>>= 1
    }
    r ^ b
  }
}
