package repro.algebra

/** Relational algebra IR mirroring the paper's bag algebra (Fig. 2).
  *
  * PBDS instruments queries at this level: sketch capture (Sec. 7) rewrites
  * the tree bottom-up, sketch use (Sec. 8) wraps table accesses in selections,
  * and the safety (Sec. 5) / reuse (Sec. 6) checkers infer formulas over it.
  * Attribute names are assumed unique across a query (as in the paper); the
  * workload definitions rename via projections before joins to guarantee it.
  */
sealed trait SqlType { def duck: String }
case object TLong   extends SqlType { val duck = "BIGINT" }
case object TInt    extends SqlType { val duck = "INTEGER" }
case object TDouble extends SqlType { val duck = "DOUBLE" }
case object TString extends SqlType { val duck = "VARCHAR" }
case object TDate   extends SqlType { val duck = "DATE" }

/** Scalar expressions: columns, literals, query parameters, arithmetic. */
sealed trait Expr {
  def +(o: Expr): Expr = Arith("+", this, o)
  def -(o: Expr): Expr = Arith("-", this, o)
  def *(o: Expr): Expr = Arith("*", this, o)
  def /(o: Expr): Expr = Arith("/", this, o)
  def <(o: Expr): Pred  = Cmp("<", this, o)
  def <=(o: Expr): Pred = Cmp("<=", this, o)
  def >(o: Expr): Pred  = Cmp(">", this, o)
  def >=(o: Expr): Pred = Cmp(">=", this, o)
  def ===(o: Expr): Pred = Cmp("=", this, o)
  def =!=(o: Expr): Pred = Cmp("<>", this, o)
  /** Columns referenced by this expression. */
  def cols: Set[String] = this match {
    case Col(n)         => Set(n)
    case Arith(_, l, r) => l.cols ++ r.cols
    case _              => Set.empty
  }
}
final case class Col(name: String) extends Expr
final case class Lit(v: Any) extends Expr
final case class Param(name: String) extends Expr
final case class Arith(op: String, l: Expr, r: Expr) extends Expr

/** Predicates: comparisons closed under and/or/not. */
sealed trait Pred {
  def &&(o: Pred): Pred = PAnd(this, o)
  def ||(o: Pred): Pred = POr(this, o)
  def unary_! : Pred = PNot(this)
  def cols: Set[String] = this match {
    case Cmp(_, l, r) => l.cols ++ r.cols
    case PAnd(l, r)   => l.cols ++ r.cols
    case POr(l, r)    => l.cols ++ r.cols
    case PNot(p)      => p.cols
    case PTrue        => Set.empty
  }
}
final case class Cmp(op: String, l: Expr, r: Expr) extends Pred
final case class PAnd(l: Pred, r: Pred) extends Pred
final case class POr(l: Pred, r: Pred) extends Pred
final case class PNot(p: Pred) extends Pred
case object PTrue extends Pred

/** Aggregation functions of the paper's γ operator. */
sealed trait AggFn { def sql: String }
case object FSum   extends AggFn { val sql = "SUM" }
case object FCount extends AggFn { val sql = "COUNT" }
case object FMin   extends AggFn { val sql = "MIN" }
case object FMax   extends AggFn { val sql = "MAX" }
case object FAvg   extends AggFn { val sql = "AVG" }
final case class Agg(fn: AggFn, input: Expr, alias: String)

/** Query operators. `columns` is the output attribute list in order. */
sealed trait Op {
  def columns: Seq[String] = this match {
    case TableRef(_, schema)    => schema.map(_._1)
    case Select(_, c)           => c.columns
    case Project(items, _)      => items.map(_._2)
    case Aggregate(g, aggs, _)  => g ++ aggs.map(_.alias)
    case TopK(_, _, c)          => c.columns
    case Join(l, r, _)          => l.columns ++ r.columns
    case UnionAll(l, _)         => l.columns
    case Distinct(c)            => c.columns
  }
  def children: Seq[Op] = this match {
    case _: TableRef      => Seq.empty
    case Select(_, c)     => Seq(c)
    case Project(_, c)    => Seq(c)
    case Aggregate(_, _, c) => Seq(c)
    case TopK(_, _, c)    => Seq(c)
    case Join(l, r, _)    => Seq(l, r)
    case UnionAll(l, r)   => Seq(l, r)
    case Distinct(c)      => Seq(c)
  }
}
final case class TableRef(name: String, schema: Seq[(String, SqlType)]) extends Op
final case class Select(pred: Pred, child: Op) extends Op
final case class Project(items: Seq[(Expr, String)], child: Op) extends Op
final case class Aggregate(groupBy: Seq[String], aggs: Seq[Agg], child: Op) extends Op
/** ORDER BY (attr, ascending?) LIMIT k — the paper's τ_{O,C}. */
final case class TopK(orderBy: Seq[(String, Boolean)], k: Int, child: Op) extends Op
/** Multi-column equi-join on (leftCol, rightCol) pairs. */
final case class Join(left: Op, right: Op, on: Seq[(String, String)]) extends Op
final case class UnionAll(left: Op, right: Op) extends Op
final case class Distinct(child: Op) extends Op

object Algebra {

  /** All base tables accessed by the query (paper assumes each ≤ once). */
  def tables(op: Op): Seq[TableRef] = op match {
    case t: TableRef => Seq(t)
    case o           => o.children.flatMap(tables)
  }

  /** Column type lookup across all base tables of a query. */
  def baseTypes(op: Op): Map[String, SqlType] =
    tables(op).flatMap(_.schema).toMap

  /** Rewrite every table access (sketch use, Eq. 2, operates here). */
  def transformTables(op: Op)(f: TableRef => Op): Op = op match {
    case t: TableRef            => f(t)
    case Select(p, c)           => Select(p, transformTables(c)(f))
    case Project(items, c)      => Project(items, transformTables(c)(f))
    case Aggregate(g, a, c)     => Aggregate(g, a, transformTables(c)(f))
    case TopK(o, k, c)          => TopK(o, k, transformTables(c)(f))
    case Join(l, r, on)         => Join(transformTables(l)(f), transformTables(r)(f), on)
    case UnionAll(l, r)         => UnionAll(transformTables(l)(f), transformTables(r)(f))
    case Distinct(c)            => Distinct(transformTables(c)(f))
  }

  /** Instantiate a parameterized query (Sec. 6): substitute Param → Lit. */
  def bind(op: Op, binding: Map[String, Any]): Op = {
    def be(e: Expr): Expr = e match {
      case Param(n)       => Lit(binding.getOrElse(n, sys.error(s"unbound parameter $$n=$n")))
      case Arith(o, l, r) => Arith(o, be(l), be(r))
      case other          => other
    }
    def bp(p: Pred): Pred = p match {
      case Cmp(o, l, r) => Cmp(o, be(l), be(r))
      case PAnd(l, r)   => PAnd(bp(l), bp(r))
      case POr(l, r)    => POr(bp(l), bp(r))
      case PNot(q)      => PNot(bp(q))
      case PTrue        => PTrue
    }
    op match {
      case t: TableRef        => t
      case Select(p, c)       => Select(bp(p), bind(c, binding))
      case Project(items, c)  => Project(items.map { case (e, a) => (be(e), a) }, bind(c, binding))
      case Aggregate(g, a, c) => Aggregate(g, a.map(x => x.copy(input = be(x.input))), bind(c, binding))
      case TopK(o, k, c)      => TopK(o, k, bind(c, binding))
      case Join(l, r, on)     => Join(bind(l, binding), bind(r, binding), on)
      case UnionAll(l, r)     => UnionAll(bind(l, binding), bind(r, binding))
      case Distinct(c)        => Distinct(bind(c, binding))
    }
  }
}
