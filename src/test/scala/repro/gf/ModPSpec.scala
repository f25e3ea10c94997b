package repro.gf

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ModPSpec extends AnyFunSuite {

  test("P is prime (trial division to sqrt)") {
    val p = ModP.P
    assert(p > 2)
    var d = 3L
    assert(p % 2 != 0)
    while (d * d <= p) { assert(p % d != 0, s"$p divisible by $d"); d += 2 }
  }

  test("axb stays in [0, p)") {
    val rng = new Random(3)
    (1 to 500).foreach { _ =>
      val a = 1L + rng.nextLong(ModP.P - 1)
      val x = rng.nextLong(ModP.P)
      val b = rng.nextLong(ModP.P)
      val y = ModPLaws.axb(a, x, b)
      assert(y >= 0 && y < ModP.P)
    }
  }

  test("axb with a != 0 is a bijection (inverse recovers x)") {
    val rng = new Random(4)
    (1 to 300).foreach { _ =>
      val a = 1L + rng.nextLong(ModP.P - 1)
      val x = rng.nextLong(ModP.P)
      val b = rng.nextLong(ModP.P)
      val y = ModPLaws.axb(a, x, b)
      val back = ModPLaws.inv(a) * (((y - b) % ModP.P + ModP.P) % ModP.P) % ModP.P
      assert(back == x)
    }
  }

  test("inv: a * inv(a) = 1 mod p") {
    val rng = new Random(5)
    (1 to 300).foreach { _ =>
      val a = 1L + rng.nextLong(ModP.P - 1)
      assert(a * ModPLaws.inv(a) % ModP.P == 1L)
    }
  }

  test("inv rejects 0") { assertThrows[IllegalArgumentException](ModPLaws.inv(0L)) }

  test("axb rejects out-of-range vertex IDs") {
    assertThrows[IllegalArgumentException](ModPLaws.axb(2L, ModP.P, 0L))
    assertThrows[IllegalArgumentException](ModPLaws.axb(2L, -1L, 0L))
  }
}
