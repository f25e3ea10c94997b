package repro.core

import org.apache.spark.sql.DataFrame
import repro.gf.GfFunctions
import repro.graph.{GraphOps, SpaceTracker, Table}
import scala.collection.mutable
import scala.util.Random

/** Implementation variants of Randomised Contraction (§V-D). */
sealed trait Variant
object Variant {
  /** Fig. 3: one running composition table L — deterministic linear space. */
  case object Deterministic extends Variant
  /** Fig. 4: stack of R_i tables joined back-to-front small-to-large —
    * faster, linear space in expectation. Requires an affine method.
    */
  case object Fast extends Variant
}

/** The paper's contribution: Randomised Contraction (§V), run as the paper's
  * SQL script (Figs. 3, 4 and 8) through `spark.sql`.
  *
  * Per round i: draw a fresh random bijection h_i, map every vertex to the
  * representative `r_i(v) = min_{w ∈ N[v]} h_i(w)` (one aggregate query),
  * contract the edge table by replacing endpoints with representatives and
  * dropping duplicates and loops (one self-join query), and fold r_i into the
  * composition. Terminates when the edge table is empty; expected
  * O(log |V|) rounds for any input (Theorem 1: shrink factor γ ≤ 3/4).
  *
  * Each `CREATE TABLE` of the script is a [[SpaceTracker.materialize]]d
  * query, E_i's through [[SpaceTracker.endRound]] as it ends the round, so
  * Tables I, IV and V can be reproduced, and the script names a table by its
  * [[SpaceTracker.view]]; each `DROP TABLE` drops both.
  */
final case class RandomisedContraction(method: Randomisation = FiniteField64,
                                       variant: Variant = Variant.Fast) extends CcAlgorithm {
  require(variant == Variant.Deterministic || method.isInstanceOf[AffineMethod],
    s"Fast variant (Fig. 4) needs an affine method for the (A,B) accumulator; ${method.name} is not")

  override def name: String = {
    val base = variant match {
      case Variant.Fast          => "RC"
      case Variant.Deterministic => "RC-det"
    }
    if (method == FiniteField64) base else s"$base-${method.name}"
  }

  override def run(edges: DataFrame, tracker: SpaceTracker, seed: Long): CcRun = {
    val spark = edges.sparkSession
    GfFunctions.ensureRegistered(spark)
    val rng = new Random(seed)

    /** `create table <name> as <query>`; the query names a table x `${t(x)}`. */
    def create(name: String, query: String): Table = tracker.materialize(name, spark.sql(query))
    def t(table: Table): String = tracker.view(table)

    /** Materialise R_i (`select v, least(h(v), min(h(w))) from E group by v`)
      * and return it with the relabelling that composition applies to
      * unmatched rows.
      *
      * For the hash methods the representative IS the h-value — the paper's
      * performance optimisation that relabels vertices each round (valid because
      * h_i is a bijection). The random-reals method instead materialises the
      * per-vertex random table and takes an argmin, keeping original IDs.
      */
    def representatives(e: Table, round: Int): (Table, RoundHash) = method match {
      case m: HashMethod =>
        val h = m.nextRound(rng)
        val r = create(s"R$round",
          s"select v, least(${h.hash("v")}, min(${h.hash("w")})) as r from ${t(e)} group by v")
        r -> h
      case RandomReals =>
        val hTab = create(s"H$round",
          s"select v, rand(${rng.nextLong()}L) as h from (select distinct v from ${t(e)})")
        val r = create(s"R$round",
          s"""select v, min_by(w, h) as r from (
             |  select g.v, g.w, hw.h from ${t(e)} g join ${t(hTab)} hw on g.w = hw.v
             |  union all select v, v as w, h from ${t(hTab)})
             |group by v""".stripMargin)
        tracker.drop(hTab)
        r -> (x => x) // argmin keeps original IDs: no relabelling
    }

    /** `out := x ⟕ y`: each vertex of x takes y's representative of its label;
      * labels y does not hold (vertices that went isolated earlier) are only
      * relabelled by h. Fig. 3 composes L with R_i, Fig. 4 R_i with R_{i+1}.
      * Drops x and y.
      */
    def compose(out: String, x: Table, y: Table, h: RoundHash): Table = {
      val composed = create(out,
        s"select x.v, coalesce(y.r, ${h.hash("x.r")}) as r from ${t(x)} x left join ${t(y)} y on x.r = y.v")
      tracker.drop(x)
      tracker.drop(y)
      composed
    }

    /** Fig. 4's second loop: R_i := R_i ⟕ R_{i+1} from the top of the stack
      * down, unmatched rows getting the accumulated relabelling
      * h_k ∘ … ∘ h_{i+1}. Returns the table holding the labels.
      */
    def composeBackToFront(stack: mutable.Stack[(Table, AffineRoundHash)]): Table = {
      var (cur, acc) = stack.pop()
      while (stack.nonEmpty) {
        val (ri, hi) = stack.pop()
        cur = compose(s"C${stack.size + 1}", ri, cur, acc)
        acc = acc.compose(hi)
      }
      cur
    }

    // The script: contraction rounds until E is empty, then the labels.
    var e     = tracker.materialize("E0", GraphOps.undirect(GraphOps.asEdges(edges)))
    var l     = Option.empty[Table]                            // Fig. 3: running L
    val stack = mutable.Stack.empty[(Table, AffineRoundHash)] // Fig. 4: R_i with h_i
    Rounds(name)(e.rows != 0L) { round =>
      val (r, h) = representatives(e, round)
      val next = tracker.endRound(s"E$round", spark.sql(
        s"""select distinct r1.r as v, r2.r as w
           |from ${t(e)} g join ${t(r)} r1 on g.v = r1.v join ${t(r)} r2 on g.w = r2.v
           |where r1.r != r2.r""".stripMargin))
      tracker.drop(e)
      e = next
      variant match {
        // L := R_1 (rename, no rewrite), then L_i := L ⟕ R_i.
        case Variant.Deterministic => l = Some(l.fold(r)(compose(s"L$round", _, r, h)))
        case Variant.Fast => stack.push(r -> h.asInstanceOf[AffineRoundHash]) // affine: see `require`
      }
      e.rows != 0L
    }
    tracker.drop(e) // empty: the rounds ran until no edge was left
    if (l.isEmpty && stack.isEmpty) return CcRun(spark.sql("select id as v, id as r from range(0)"), tracker)

    val labels = variant match {
      case Variant.Deterministic => l.get
      case Variant.Fast          => composeBackToFront(stack)
    }
    CcRun(labels.df, tracker)
  }
}
