package repro.gf

import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck property suite (run by sbt's native ScalaCheck support) —
  * shrinking, generator-driven counterparts to Gf64Spec/ModPSpec/XteaSpec.
  */
object GfProperties extends Properties("gf") {

  private val anyLong     = Gen.chooseNum(Long.MinValue, Long.MaxValue)
  private val nonZeroLong = anyLong.suchThat(_ != 0L)
  private val modPElem    = Gen.chooseNum(0L, ModP.P - 1)
  private val modPNonZero = Gen.chooseNum(1L, ModP.P - 1)

  property("gf64.mul commutative") = Prop.forAll(anyLong, anyLong) { (a, b) =>
    Gf64Laws.mul(a, b) == Gf64Laws.mul(b, a)
  }

  property("gf64.mul associative") = Prop.forAll(anyLong, anyLong, anyLong) { (a, b, c) =>
    Gf64Laws.mul(Gf64Laws.mul(a, b), c) == Gf64Laws.mul(a, Gf64Laws.mul(b, c))
  }

  property("gf64.distributive") = Prop.forAll(anyLong, anyLong, anyLong) { (a, b, c) =>
    Gf64Laws.mul(a, b ^ c) == (Gf64Laws.mul(a, b) ^ Gf64Laws.mul(a, c))
  }

  property("gf64.inverse") = Prop.forAll(nonZeroLong) { a =>
    Gf64Laws.mul(a, Gf64Laws.inv(a)) == Gf64Laws.One
  }

  property("gf64.affine bijective") = Prop.forAll(nonZeroLong, anyLong, anyLong) { (a, b, x) =>
    Gf64Laws.invAxb(a, Gf64.axb(a, x, b), b) == x
  }

  property("modp.affine stays in range") = Prop.forAll(modPNonZero, modPElem, modPElem) { (a, x, b) =>
    val y = ModPLaws.axb(a, x, b)
    y >= 0L && y < ModP.P
  }

  property("modp.affine invertible") = Prop.forAll(modPNonZero, modPElem, modPElem) { (a, x, b) =>
    val y = ModPLaws.axb(a, x, b)
    ModPLaws.inv(a) * (((y - b) % ModP.P + ModP.P) % ModP.P) % ModP.P == x
  }

  property("xtea.roundtrip") = Prop.forAll(anyLong, Gen.long, Gen.long) { (x, k01, k23) =>
    val (k0, k1, k2, k3) = ((k01 >>> 32).toInt, k01.toInt, (k23 >>> 32).toInt, k23.toInt)
    XteaLaws.decrypt(Xtea.encrypt(x, k0, k1, k2, k3), k0, k1, k2, k3) == x
  }
}
