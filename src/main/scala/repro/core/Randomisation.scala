package repro.core

import repro.gf.{Gf64, GfFunctions, ModP}
import scala.util.Random

/** How a round of RC orders the vertices (§V-C).
  *
  * The paper's three randomisation methods:
  *
  *  - finite fields (GF(2^64) or GF(p)): h(x) = A·x + B, affine — these also
  *    support the Fast variant's back-to-front (A,B) accumulation (Fig. 4);
  *  - encryption: h(x) = E_k(x) for a fresh key per round (bijective, not
  *    affine, so only the Fig. 3 variant applies);
  *  - random reals: a per-vertex uniform random table with argmin selection
  *    (no relabelling; representatives stay original vertex IDs).
  */
sealed trait Randomisation {
  def name: String
}

/** A method that draws a random bijection h_i on vertex IDs per round. */
sealed trait HashMethod extends Randomisation {
  /** Draw the per-round randomness. */
  def nextRound(rng: Random): RoundHash
}

/** A method whose rounds are affine: the methods the Fast variant accepts. */
sealed trait AffineMethod extends HashMethod {
  def nextRound(rng: Random): AffineRoundHash
}

/** The drawn bijection h_i of one round, as SQL text. GF(2^64) and XTEA pass
  * the keys as one BINARY literal, kept out of generated Java ([[GfFunctions]]).
  */
trait RoundHash {
  /** h_i applied to the SQL expression `x` (used both for picking
    * representatives and for relabelling unmatched rows during composition).
    */
  def hash(x: String): String
}

/** Affine rounds compose in closed form: needed by the Fast variant's
  * back-to-front accumulator (Fig. 4: `(A,B) ← (A·α, A·β + B)`).
  */
trait AffineRoundHash extends RoundHash {
  def a: Long
  def b: Long
  /** `this ∘ inner` (apply inner first, then this). */
  def compose(inner: AffineRoundHash): AffineRoundHash
}

/** Finite fields method over GF(2^64) — the method used in all the paper's
  * experiments, via the `gf64_affine` engine function (paper's C UDF
  * `axplusb`), whose key is A then B.
  */
case object FiniteField64 extends AffineMethod {
  val name = "gf64"
  final case class Round(a: Long, b: Long) extends AffineRoundHash {
    def hash(x: String): String = s"gf64_affine(${GfFunctions.sqlLiteral(GfFunctions.key(a, b))}, $x)"
    /** Fig. 4 accumulator step: (A,B) ← (A·α, A·β + B) over GF(2^64). */
    def compose(inner: AffineRoundHash): AffineRoundHash =
      Round(Gf64.axb(a, inner.a, 0L), Gf64.axb(a, inner.b, b))
  }
  def nextRound(rng: Random): Round = {
    var a = 0L
    while (a == 0L) a = rng.nextLong()
    Round(a, rng.nextLong())
  }
}

/** Finite fields method over GF(p), p = 2^31 − 1 — the paper's "SQL-only"
  * alternative (plain modular arithmetic, no UDF). h is a bijection on
  * [0, p) only, so an ID outside that range fails the query instead of
  * sharing a label with the ID it collides with. Its `bigint` key literals
  * are printed into the generated Java, so its queries compile every round.
  */
case object FinitePrimeField extends AffineMethod {
  val name = "modp"
  final case class Round(a: Long, b: Long) extends AffineRoundHash {
    def hash(x: String): String =
      s"case when $x < 0 or $x >= ${ModP.P}L " +
        s"then raise_error(concat('vertex ID ', cast($x as string), ' outside [0, ${ModP.P}) of GF(p)')) " +
        s"else pmod(${a}L * $x + ${b}L, ${ModP.P}L) end"
    def compose(inner: AffineRoundHash): AffineRoundHash =
      Round(a * inner.a % ModP.P, (a * inner.b + b) % ModP.P)
  }
  def nextRound(rng: Random): Round = {
    val a = 1L + math.floorMod(rng.nextLong(), ModP.P - 1) // in [1, p)
    val b = math.floorMod(rng.nextLong(), ModP.P)          // in [0, p)
    Round(a, b)
  }
}

/** Encryption method (§V-C): pseudo-random bijection via a 64-bit block
  * cipher with a fresh random key each round. XTEA substitutes for the
  * paper's Blowfish (DESIGN.md §4). Not affine → Deterministic variant only.
  */
case object Encryption extends HashMethod {
  val name = "xtea"
  final case class Round(k0: Int, k1: Int, k2: Int, k3: Int) extends RoundHash {
    def hash(x: String): String = s"xtea_enc($x, ${GfFunctions.sqlLiteral(GfFunctions.key(k0, k1, k2, k3))})"
  }
  def nextRound(rng: Random): Round = Round(rng.nextInt(), rng.nextInt(), rng.nextInt(), rng.nextInt())
}

/** Random reals method (§V-C): a fresh uniform random number per vertex per
  * round, representatives chosen by argmin so vertex IDs are never relabelled.
  * The random table must be joined to the edges — the communication cost the
  * finite-fields method exists to avoid.
  */
case object RandomReals extends Randomisation {
  val name = "randreal"
}
