package repro.gf

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** XTEA substitutes for Blowfish in the encryption randomisation method;
  * what the algorithm needs is a keyed bijection with strong diffusion.
  */
class XteaSpec extends AnyFunSuite {

  private val key = (0x01234567, 0x89abcdef, 0xfedcba98, 0x76543210)

  test("encrypt/decrypt round-trips on random blocks") {
    val rng = new Random(7)
    (1 to 500).foreach { _ =>
      val x = rng.nextLong()
      val y = Xtea.encrypt(x, key._1, key._2, key._3, key._4)
      assert(XteaLaws.decrypt(y, key._1, key._2, key._3, key._4) == x)
    }
  }

  test("is injective on a contiguous sample (bijection requirement)") {
    val xs = (0L until 10000L)
    val ys = xs.map(Xtea.encrypt(_, key._1, key._2, key._3, key._4))
    assert(ys.distinct.size == xs.size)
  }

  test("different keys give different permutations") {
    val y1 = Xtea.encrypt(42L, 1, 2, 3, 4)
    val y2 = Xtea.encrypt(42L, 1, 2, 3, 5)
    assert(y1 != y2)
  }

  test("avalanche: flipping one input bit flips ~half the output bits") {
    val rng   = new Random(13)
    val flips = (1 to 200).map { _ =>
      val x   = rng.nextLong()
      val bit = rng.nextInt(64)
      val y1  = Xtea.encrypt(x, key._1, key._2, key._3, key._4)
      val y2  = Xtea.encrypt(x ^ (1L << bit), key._1, key._2, key._3, key._4)
      java.lang.Long.bitCount(y1 ^ y2)
    }
    val mean = flips.sum.toDouble / flips.size
    assert(mean > 24 && mean < 40, s"poor diffusion: mean flipped bits $mean")
  }

  test("sequential inputs are decorrelated (no monotone runs)") {
    val ys = (0L until 1000L).map(Xtea.encrypt(_, key._1, key._2, key._3, key._4))
    val increasingPairs = ys.zip(ys.tail).count { case (a, b) => a < b }
    // A random permutation gives ~50% ascending adjacent pairs.
    assert(increasingPairs > 400 && increasingPairs < 600)
  }
}
