package repro.gf

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Field laws for GF(2^64) — the properties Theorem 1 and the Fig. 4
  * accumulator rely on: h(x) = A·x + B is a bijection for A ≠ 0, and affine
  * maps compose affinely. Deterministic random sampling (no external
  * property-testing bridge needed).
  */
class Gf64Spec extends AnyFunSuite {

  private def samples(n: Int = 300)(f: Random => Unit): Unit = {
    val rng = new Random(0xC0FFEE)
    (1 to n).foreach(_ => f(rng))
  }
  private def nonZero(rng: Random): Long = {
    var a = 0L
    while (a == 0L) a = rng.nextLong()
    a
  }

  test("additive identity: x + 0 = x") {
    samples() { r => val x = r.nextLong(); assert(Gf64Laws.add(x, 0L) == x) }
  }

  test("addition is XOR and self-inverse: x + x = 0") {
    samples() { r => val x = r.nextLong(); assert(Gf64Laws.add(x, x) == 0L) }
  }

  test("multiplicative identity: 1 * x = x") {
    samples() { r => val x = r.nextLong(); assert(Gf64Laws.mul(Gf64Laws.One, x) == x) }
  }

  test("multiplication by zero annihilates") {
    samples() { r =>
      val x = r.nextLong()
      assert(Gf64Laws.mul(0L, x) == 0L)
      assert(Gf64Laws.mul(x, 0L) == 0L)
    }
  }

  test("multiplication is commutative") {
    samples() { r =>
      val (a, b) = (r.nextLong(), r.nextLong())
      assert(Gf64Laws.mul(a, b) == Gf64Laws.mul(b, a))
    }
  }

  test("multiplication is associative") {
    samples() { r =>
      val (a, b, c) = (r.nextLong(), r.nextLong(), r.nextLong())
      assert(Gf64Laws.mul(Gf64Laws.mul(a, b), c) == Gf64Laws.mul(a, Gf64Laws.mul(b, c)))
    }
  }

  test("multiplication distributes over addition") {
    samples() { r =>
      val (a, b, c) = (r.nextLong(), r.nextLong(), r.nextLong())
      assert(Gf64Laws.mul(a, b ^ c) == (Gf64Laws.mul(a, b) ^ Gf64Laws.mul(a, c)))
    }
  }

  test("every non-zero element has a multiplicative inverse") {
    samples(100) { r => val a = nonZero(r); assert(Gf64Laws.mul(a, Gf64Laws.inv(a)) == Gf64Laws.One) }
  }

  test("inverse of 1 is 1") { assert(Gf64Laws.inv(1L) == 1L) }

  test("inv rejects 0") { assertThrows[IllegalArgumentException](Gf64Laws.inv(0L)) }

  test("axb is consistent with mul and add") {
    samples() { r =>
      val (a, x, b) = (r.nextLong(), r.nextLong(), r.nextLong())
      assert(Gf64.axb(a, x, b) == (Gf64Laws.mul(a, x) ^ b))
    }
  }

  test("affine map is invertible: invAxb(a, axb(a,x,b), b) = x for a != 0") {
    samples(100) { r =>
      val (a, x, b) = (nonZero(r), r.nextLong(), r.nextLong())
      assert(Gf64Laws.invAxb(a, Gf64.axb(a, x, b), b) == x)
    }
  }

  test("affine map with a != 0 is injective on a sample") {
    val a  = 0x9E3779B97F4A7C15L
    val b  = 0x123456789ABCDEFL
    val xs = (0L until 4096L) ++ (0L until 64L).map(1L << _)
    val ys = xs.map(Gf64.axb(a, _, b))
    assert(ys.distinct.length == xs.distinct.length)
  }

  test("axb matches the C reference semantics on hand-checked values") {
    // x = 1 is the identity for multiplication.
    assert(Gf64.axb(0xdeadbeefL, 1L, 0L) == 0xdeadbeefL)
    // Multiplication by 2 is a left shift while the top bit is clear.
    assert(Gf64Laws.mul(2L, 0x4000000000000000L) == 0x8000000000000000L)
    // ... and shift-xor-0x1b once the top bit is set (the reduction step).
    assert(Gf64Laws.mul(2L, 0x8000000000000000L) == 0x1bL)
    // b is XORed in at the end.
    assert(Gf64.axb(0L, 0L, 0x5555L) == 0x5555L)
  }

  test("pow: a^1 = a, a^2 = a*a, a^0 = 1") {
    samples(100) { r =>
      val a = r.nextLong()
      assert(Gf64Laws.pow(a, 1L) == a)
      assert(Gf64Laws.pow(a, 2L) == Gf64Laws.mul(a, a))
      assert(Gf64Laws.pow(a, 0L) == Gf64Laws.One)
    }
  }

  test("Fermat: a^(2^64-1) = 1 for non-zero a (group order)") {
    samples(50) { r => val a = nonZero(r); assert(Gf64Laws.pow(a, -1L) == Gf64Laws.One) }
  }

  test("affine composition law used by the Fig. 4 accumulator") {
    samples() { r =>
      val (a1, b1, a2, b2, x) = (nonZero(r), r.nextLong(), nonZero(r), r.nextLong(), r.nextLong())
      // h2 ∘ h1 (x) = a2*(a1*x + b1) + b2 = (a2*a1)*x + (a2*b1 + b2)
      val direct   = Gf64.axb(a2, Gf64.axb(a1, x, b1), b2)
      val composed = Gf64.axb(Gf64Laws.mul(a2, a1), x, Gf64.axb(a2, b1, b2))
      assert(direct == composed)
    }
  }
}
