package repro.core

import repro.algebra._
import repro.smt._

/** Per-attribute relationship Ψ between the two compared query results
  * (paper Sec. 5.1): the generalized-containment condition is always a
  * conjunction of `a ◇ a'` atoms, so we track one relation per attribute.
  */
sealed trait Rel
case object REq extends Rel
case object RLe extends Rel
case object RGe extends Rel
case object RUnknown extends Rel

/** Translation of queries into solver formulas: pred(Q), expr(Q), Ψ
  * (paper Sec. 5.2) shared by the safety and reuse checkers.
  *
  * Encoding: attribute `a` of the left side (Q over D_PS, or the
  * sketch-holder instance Q) is variable `a`; the right side (Q over D, or
  * the new instance Q') is `a'`. A template parameter `$n` is one unprimed
  * variable shared by both sides: a formula valid over it holds for every
  * binding, so a template can be checked once. String and date constants
  * are mapped order-preservingly to rationals, which keeps every
  * `valid = true` answer sound (any countable total order embeds in ℚ).
  *
  * Non-linear atoms (e.g. products of two columns) cannot be decided by the
  * solver; they are dropped when in antecedent position (weakens the
  * antecedent — sound) and replaced by FALSE in consequent position
  * (strengthens the proof obligation — sound).
  */
final class QueryFormulas(strIndex: Map[String, Long],
                          stats: Map[String, (Any, Any)]) {

  def vn(col: String, primed: Boolean): String = if (primed) col + "'" else col

  def valToRat(v: Any): Option[Rat] = v match {
    case l: Long           => Some(Rat(l))
    case i: Int            => Some(Rat(i.toLong))
    case d: Double         => Some(Rat.fromDouble(d))
    case d: java.sql.Date  => Some(Rat(d.toLocalDate.toEpochDay))
    case s: String         => strIndex.get(s).map(Rat(_))
    case _                 => None
  }

  /** Linear translation of a scalar expression; None if non-linear. */
  def exprLin(e: Expr, primed: Boolean): Option[Lin] = e match {
    case Col(n)   => Some(Lin.v(vn(n, primed)))
    case Lit(v)   => valToRat(v).map(Lin.c)
    case Param(n) => Some(Lin.v("$" + n))
    case Arith(op, l, r) =>
      (exprLin(l, primed), exprLin(r, primed)) match {
        case (Some(a), Some(b)) => op match {
          case "+" => Some(a + b)
          case "-" => Some(a - b)
          case "*" =>
            if (a.isConst) Some(b * a.const)
            else if (b.isConst) Some(a * b.const)
            else None
          case "/" =>
            if (b.isConst && !b.const.isZero) Some(a * (Rat.one / b.const)) else None
          case _ => None
        }
        case _ => None
      }
  }

  private def cmpOp(op: String): CmpOp = op match {
    case "<" => Lt; case "<=" => Le; case "=" => Eq
    case "<>" => Ne; case ">=" => Ge; case ">" => Gt
  }

  /** One comparison as a formula; `ante` controls unknown-atom polarity. */
  def cmpFormula(c: Cmp, primed: Boolean, ante: Boolean): Formula =
    (exprLin(c.l, primed), exprLin(c.r, primed)) match {
      case (Some(a), Some(b)) => Atom(cmpOp(c.op), a, b)
      case _                  => if (ante) FTrue else FFalse
    }

  /** IR predicate → formula; `drop` removes conjuncts (non-grp-pred). */
  def predIR(p: Pred, primed: Boolean, ante: Boolean,
             drop: Cmp => Boolean = _ => false): Formula = p match {
    case c: Cmp     => if (drop(c)) FTrue else cmpFormula(c, primed, ante)
    case PAnd(l, r) => predIR(l, primed, ante, drop) && predIR(r, primed, ante, drop)
    case POr(l, r)  => predIR(l, primed, ante, drop) || predIR(r, primed, ante, drop)
    case PNot(q)    => FNot(predIR(q, primed, !ante, drop))
    case PTrue      => FTrue
  }

  /** pred(Q) of Sec. 5.2: statistics bounds at relations, selection and join
    * conditions, disjunction at unions.
    */
  def predOf(q: Op, primed: Boolean, ante: Boolean,
             drop: Cmp => Boolean = _ => false): Formula = q match {
    case TableRef(_, schema) =>
      Formula.all(schema.flatMap { case (c, _) =>
        stats.get(c).toSeq.flatMap { case (mn, mx) =>
          (valToRat(mn).map(r => Atom(Ge, Lin.v(vn(c, primed)), Lin.c(r))) ++
           valToRat(mx).map(r => Atom(Le, Lin.v(vn(c, primed)), Lin.c(r)))).toSeq
        }
      })
    case Select(p, c)   => predOf(c, primed, ante, drop) && predIR(p, primed, ante, drop)
    case Join(l, r, on) =>
      val onF = Formula.all(on.map { case (a, b) =>
        Atom(Eq, Lin.v(vn(a, primed)), Lin.v(vn(b, primed)))
      })
      predOf(l, primed, ante, drop) && predOf(r, primed, ante, drop) && onF
    case UnionAll(l, r) => predOf(l, primed, ante, drop) || predOf(r, primed, ante, drop)
    case other          =>
      Formula.all(other.children.map(c => predOf(c, primed, ante, drop)))
  }

  /** expr(Q) of Sec. 5.2: projection output definitions. Antecedent-only. */
  def exprOf(q: Op, primed: Boolean): Formula = q match {
    case Project(items, c) =>
      val defs = Formula.all(items.flatMap { case (e, alias) =>
        exprLin(e, primed).map(lin => Atom(Eq, lin, Lin.v(vn(alias, primed))): Formula)
      })
      exprOf(c, primed) && defs
    case UnionAll(l, r) => exprOf(l, primed) || exprOf(r, primed)
    case other          => Formula.all(other.children.map(c => exprOf(c, primed)))
  }

  /** conds(Q) = pred(Q) ∧ expr(Q), for antecedent use. */
  def conds(q: Op, primed: Boolean): Formula =
    predOf(q, primed, ante = true) && exprOf(q, primed)

  /** Ψ as a formula: one atom per attribute with a known relation. */
  def psiFormula(psi: Map[String, Rel]): Formula =
    Formula.all(psi.toSeq.collect {
      case (a, REq) => Atom(Eq, Lin.v(vn(a, primed = false)), Lin.v(vn(a, primed = true)))
      case (a, RLe) => Atom(Le, Lin.v(vn(a, primed = false)), Lin.v(vn(a, primed = true)))
      case (a, RGe) => Atom(Ge, Lin.v(vn(a, primed = false)), Lin.v(vn(a, primed = true)))
    })

  /** Goal `a = a'`: the attribute is equal on both sides. */
  def eqGoal(a: String): Formula =
    Atom(Eq, Lin.v(vn(a, primed = false)), Lin.v(vn(a, primed = true)))

  /** Whether `conds(child) → input(a) op 0` holds for an aggregate's input,
    * the sign condition of the sum/min/max rules in Figs. 3b and 4b, as
    * decided by `valid`.
    */
  def inputSign(a: Agg, child: Op, op: CmpOp, valid: Formula => Boolean): Boolean =
    exprLin(a.input, primed = false).exists { lin =>
      valid(conds(child, primed = false) ==> Atom(op, lin, Lin.c(0L)))
    }

  /** Relationship of a projected expression given input-attribute relations:
    * equality propagates; ≤/≥ propagate through monotone linear maps.
    */
  def projRel(e: Expr, psi: Map[String, Rel]): Rel = {
    e match {
      case Col(n) => return psi.getOrElse(n, RUnknown)
      case _      =>
    }
    exprLin(e, primed = false) match {
      case None => RUnknown
      case Some(lin) =>
        val rels = lin.coeffs.map { case (v, coef) =>
          val r = psi.getOrElse(v, RUnknown)
          if (coef.signum >= 0) r
          else r match { case RLe => RGe; case RGe => RLe; case x => x }
        }
        if (rels.forall(_ == REq)) REq
        else if (rels.forall(r => r == REq || r == RLe)) RLe
        else if (rels.forall(r => r == REq || r == RGe)) RGe
        else RUnknown
    }
  }
}

object QueryFormulas {

  /** Ψ relating every given column by `=`. */
  def allEq(cols: Iterable[String]): Map[String, Rel] = cols.map(_ -> (REq: Rel)).toMap

  /** Ψ of a union: only relations that are `=` on both branches survive. */
  def unionPsi(l: Map[String, Rel], r: Map[String, Rel]): Map[String, Rel] =
    (l.keySet ++ r.keySet).map { k =>
      k -> (if (l.get(k).contains(REq) && r.get(k).contains(REq)) REq else RUnknown)
    }.toMap

  /** Collect every string constant in queries + stats and index it in
    * lexicographic order (the order embedding into ℚ).
    */
  def forQueries(qs: Seq[Op], stats: Map[String, (Any, Any)]): QueryFormulas = {
    val fromStats = stats.values.flatMap { case (a, b) => Seq(a, b) }
      .collect { case s: String => s }
    def exprStrings(e: Expr): Seq[String] = e match {
      case Lit(s: String) => Seq(s)
      case Arith(_, l, r) => exprStrings(l) ++ exprStrings(r)
      case _              => Seq.empty
    }
    def predStrings(p: Pred): Seq[String] = p match {
      case Cmp(_, l, r) => exprStrings(l) ++ exprStrings(r)
      case PAnd(l, r)   => predStrings(l) ++ predStrings(r)
      case POr(l, r)    => predStrings(l) ++ predStrings(r)
      case PNot(q)      => predStrings(q)
      case PTrue        => Seq.empty
    }
    def opStrings(op: Op): Seq[String] = {
      val own = op match {
        case Select(p, _)        => predStrings(p)
        case Project(items, _)   => items.flatMap(i => exprStrings(i._1))
        case Aggregate(_, as, _) => as.flatMap(a => exprStrings(a.input))
        case _                   => Seq.empty
      }
      own ++ op.children.flatMap(opStrings)
    }
    val all = (qs.flatMap(opStrings) ++ fromStats).distinct.sorted
    new QueryFormulas(all.zipWithIndex.map { case (s, i) => s -> (i + 1).toLong }.toMap, stats)
  }
}
