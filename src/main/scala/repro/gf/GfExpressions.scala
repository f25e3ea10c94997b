package repro.gf

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.{FunctionIdentifier, InternalRow}
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.types.{DataType, LongType}

/** Catalyst expressions for the randomisation bijections.
  *
  * The paper loads its finite-field arithmetic into the database as a C UDF
  * (`axplusb`, Fig. 7); the Spark analogue of an engine-level UDF is a
  * Catalyst [[Expression]] registered in the session's FunctionRegistry (see
  * [[GfFunctions.ensureRegistered]]) and invoked by name via `call_function`
  * — it then takes part in analysis and optimisation like any built-in.
  */
abstract class LongNaryExpression extends Expression with CodegenFallback {
  /** Number of LONG arguments. Callers must pass LongType columns (cast first). */
  protected def arity: Int

  /** The pure function over the evaluated arguments. */
  protected def compute(args: Array[Long]): Long

  override def dataType: DataType = LongType
  override def nullable: Boolean  = children.exists(_.nullable)

  override def eval(input: InternalRow): Any = {
    val args = new Array[Long](arity)
    var i    = 0
    while (i < arity) {
      val v = children(i).eval(input)
      if (v == null) return null
      // No ExpectsInputTypes (the trait's type classes are private[sql]), so
      // widen integral literals (SQL `7` arrives as Integer) manually.
      args(i) = v match {
        case n: java.lang.Number                     => n.longValue()
        case d: org.apache.spark.sql.types.Decimal   => d.toLong
        case other =>
          throw new IllegalArgumentException(s"$prettyName expects integral arguments, got $other")
      }
      i += 1
    }
    compute(args)
  }
}

/** gf64_axb(a, x, b) = a*x + b over GF(2^64) — the paper's `axplusb` UDF. */
case class Gf64AxPlusB(children: Seq[Expression]) extends LongNaryExpression {
  override protected def arity: Int = 3
  override protected def compute(args: Array[Long]): Long = Gf64.axb(args(0), args(1), args(2))
  override protected def withNewChildrenInternal(newChildren: IndexedSeq[Expression]): Expression =
    copy(children = newChildren)
}

/** xtea_enc(x, k0, k1, k2, k3) — 64-bit block encryption of x (encryption method). */
case class XteaEnc(children: Seq[Expression]) extends LongNaryExpression {
  override protected def arity: Int = 5
  override protected def compute(args: Array[Long]): Long =
    Xtea.encrypt(args(0), args(1).toInt, args(2).toInt, args(3).toInt, args(4).toInt)
  override protected def withNewChildrenInternal(newChildren: IndexedSeq[Expression]): Expression =
    copy(children = newChildren)
}

/** Registers the repro functions in a session's FunctionRegistry (idempotent). */
object GfFunctions {
  def ensureRegistered(spark: SparkSession): Unit = {
    val reg = spark.sessionState.functionRegistry
    if (!reg.functionExists(FunctionIdentifier("gf64_axb"))) {
      reg.createOrReplaceTempFunction("gf64_axb", exprs => Gf64AxPlusB(exprs), "scala_udf")
      reg.createOrReplaceTempFunction("xtea_enc", exprs => XteaEnc(exprs), "scala_udf")
    }
  }
}
