package repro.smt

/** Exact rational arithmetic for the Fourier–Motzkin solver.
  *
  * The gc/ge safety formulas (paper Sec. 5/6) contain constants coming from
  * query literals and statistics; doubles would make "sound" validity claims
  * unsound under rounding, so all solver arithmetic is exact.
  */
final case class Rat private (n: BigInt, d: BigInt) extends Ordered[Rat] {
  def +(o: Rat): Rat = Rat(n * o.d + o.n * d, d * o.d)
  def -(o: Rat): Rat = Rat(n * o.d - o.n * d, d * o.d)
  def *(o: Rat): Rat = Rat(n * o.n, d * o.d)
  def /(o: Rat): Rat = { require(o.n != 0, "division by zero"); Rat(n * o.d, d * o.n) }
  def unary_- : Rat  = Rat(-n, d)
  def isZero: Boolean = n == 0
  def signum: Int     = n.signum
  override def compare(o: Rat): Int = (n * o.d).compare(o.n * d)
  override def toString: String = if (d == 1) n.toString else s"$n/$d"
}

object Rat {
  val zero: Rat = Rat(0, 1)
  val one: Rat  = Rat(1, 1)

  def apply(n: BigInt, d: BigInt): Rat = {
    require(d != 0, "zero denominator")
    val s = d.signum
    val g = n.gcd(d)
    if (g == 0) new Rat(0, 1) else new Rat(n * s / g, d * s / g)
  }
  def apply(n: Long): Rat = apply(BigInt(n), BigInt(1))
  def fromDouble(x: Double): Rat = {
    require(!x.isNaN && !x.isInfinite, s"non-finite constant $x")
    val bd = BigDecimal(x)
    if (bd.scale <= 0) apply(bd.toBigInt, BigInt(1))
    else apply(BigInt(bd.bigDecimal.unscaledValue()), BigInt(10).pow(bd.scale))
  }
}

/** Linear expression c0 + Σ ci·xi over rational coefficients. */
final case class Lin(coeffs: Map[String, Rat], const: Rat) {
  def +(o: Lin): Lin = Lin.merge(this, o, (a, b) => a + b)
  def -(o: Lin): Lin = Lin.merge(this, o, (a, b) => a - b)
  def *(k: Rat): Lin =
    Lin(coeffs.map { case (v, c) => v -> c * k }.filter(!_._2.isZero), const * k)
  def vars: Set[String] = coeffs.keySet
  def coeff(v: String): Rat = coeffs.getOrElse(v, Rat.zero)
  def isConst: Boolean = coeffs.isEmpty
}

object Lin {
  def v(name: String): Lin = Lin(Map(name -> Rat.one), Rat.zero)
  def c(r: Rat): Lin       = Lin(Map.empty, r)
  def c(l: Long): Lin      = c(Rat(l))
  private def merge(a: Lin, b: Lin, f: (Rat, Rat) => Rat): Lin = {
    val ks = a.coeffs.keySet ++ b.coeffs.keySet
    Lin(ks.map(k => k -> f(a.coeff(k), b.coeff(k))).filter(!_._2.isZero).toMap,
        f(a.const, b.const))
  }
}

/** Comparison operators of the formula language. */
sealed trait CmpOp { def flip: CmpOp; def negate: CmpOp }
case object Lt extends CmpOp { val flip = Gt; val negate = Ge }
case object Le extends CmpOp { val flip = Ge; val negate = Gt }
case object Eq extends CmpOp { val flip = Eq; val negate = Ne }
case object Ne extends CmpOp { val flip = Ne; val negate = Eq }
case object Ge extends CmpOp { val flip = Le; val negate = Lt }
case object Gt extends CmpOp { val flip = Lt; val negate = Le }

/** Quantifier-free formulas over linear comparisons.
  *
  * The safety test (paper Thm. 1/2) checks validity of a universally
  * quantified implication; we check validity as unsatisfiability of the
  * negation, exactly as the paper does with Z3.
  */
sealed trait Formula {
  def &&(o: Formula): Formula = FAnd(Seq(this, o))
  def ||(o: Formula): Formula = FOr(Seq(this, o))
  def ==>(o: Formula): Formula = FOr(Seq(FNot(this), o))
  def unary_! : Formula = FNot(this)
}
final case class Atom(op: CmpOp, l: Lin, r: Lin) extends Formula
final case class FAnd(fs: Seq[Formula]) extends Formula
final case class FOr(fs: Seq[Formula]) extends Formula
final case class FNot(f: Formula) extends Formula
case object FTrue extends Formula
case object FFalse extends Formula

object Formula {
  def all(fs: Seq[Formula]): Formula = if (fs.isEmpty) FTrue else FAnd(fs)
  def eqv(a: String, b: String): Formula = Atom(Eq, Lin.v(a), Lin.v(b))
  def leq(a: String, b: String): Formula = Atom(Le, Lin.v(a), Lin.v(b))
  def geq(a: String, b: String): Formula = Atom(Ge, Lin.v(a), Lin.v(b))
}
