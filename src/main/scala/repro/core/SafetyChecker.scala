package repro.core

import scala.collection.mutable

import repro.algebra._
import repro.smt.{Atom, Eq => SEq, Formula, Lin, Solver}

/** Static sketch-safety test (paper Sec. 5, Fig. 3).
  *
  * `isSafe(Q, X)` soundly decides whether range-partition sketches over
  * attribute set X are safe for Q: it computes the per-attribute generalized
  * containment relation Ψ bottom-up and discharges the gc(Q, X) side
  * conditions with the solver. `true` implies safety for every database
  * consistent with the provided statistics (Thm. 2); `false` means "maybe
  * unsafe" — the algorithm is sound but not complete (Thm. 1 shows a
  * complete one cannot exist).
  */
object SafetyChecker {

  /** min/max column statistics (the DBMS stats pred(Q) uses, Sec. 5.2). */
  final case class Stats(minMax: Map[String, (Any, Any)] = Map.empty)

  private final case class Info(psi: Map[String, Rel], gc: Boolean)

  /** What the checks of one query under one set of statistics share: the
    * query's formulas, and the verdict of every proof obligation already
    * discharged. A verdict depends on its formula alone, so the formula is
    * the whole memo key. A candidate search builds one and drops it when it
    * returns; it grows by at most the query's distinct obligations.
    */
  final class Checks(q: Op, stats: Stats) {
    private[SafetyChecker] val qf: QueryFormulas = QueryFormulas.forQueries(Seq(q), stats.minMax)
    private val memo = mutable.HashMap.empty[Formula, Boolean]
    private[SafetyChecker] def valid(f: Formula): Boolean = memo.getOrElseUpdate(f, Solver.valid(f))
  }

  /** `checks`, if given, must have been built for `q` and `stats`. */
  def isSafe(q: Op, attrs: Set[String], stats: Stats = Stats(),
             checks: Option[Checks] = None): Boolean =
    analyze(q, attrs, checks.getOrElse(new Checks(q, stats))).gc

  private def baseAttrs(q: Op): Set[String] =
    Algebra.tables(q).flatMap(_.schema.map(_._1)).toSet

  /** Every attribute name mentioned under q: base columns plus projection
    * and aggregation aliases. Ψ ranges over all of them (the paper's Ψ in
    * Ex. 7 keeps p = p' through the aggregation, not just output columns).
    */
  private[core] def allAttrs(q: Op): Set[String] = {
    val own = q match {
      case Project(items, _)   => items.map(_._2).toSet
      case Aggregate(_, as, _) => as.map(_.alias).toSet
      case t: TableRef         => t.schema.map(_._1).toSet
      case _                   => Set.empty[String]
    }
    own ++ q.children.flatMap(allAttrs)
  }

  /** Ψ ∧ conds(Q₁') ∧ conds(Q₁) [∧ extra] → goal, discharged by the solver. */
  private def checkImplies(ck: Checks, psi: Map[String, Rel], sub: Op,
                           extra: Formula, goal: Formula): Boolean = {
    val qf = ck.qf
    val ante = qf.psiFormula(psi) && qf.conds(sub, primed = false) &&
      qf.conds(sub, primed = true) && extra
    ck.valid(ante ==> goal)
  }

  private def analyze(q: Op, x: Set[String], ck: Checks): Info = {
    val qf = ck.qf
    val x1 = x intersect baseAttrs(q)
    // X = ∅ for this subtree: D_PS keeps these relations unchanged (Fig. 3 row 1).
    if (x1.isEmpty) return Info(QueryFormulas.allEq(allAttrs(q)), gc = true)
    q match {
      case t: TableRef => Info(QueryFormulas.allEq(t.columns), gc = true)

      case Select(theta, c) =>
        val i = analyze(c, x, ck)
        val ok = i.gc && checkImplies(ck, i.psi, c,
          qf.predIR(theta, primed = false, ante = true),
          qf.predIR(theta, primed = true, ante = false))
        Info(i.psi, ok)

      case Project(items, c) =>
        val i = analyze(c, x, ck)
        Info(i.psi ++ items.map { case (e, a) => a -> qf.projRel(e, i.psi) }.toMap, i.gc)

      case Aggregate(g, aggs, c) =>
        val i = analyze(c, x, ck)
        val groupsEqual = g.forall { gc =>
          i.psi.get(gc).contains(REq) ||
            checkImplies(ck, i.psi, c, FTrueF, qf.eqGoal(gc))
        }
        val psiOut: Map[String, Rel] =
          i.psi ++ aggs.map(a => a.alias -> aggRel(a, g, c, x1, ck)).toMap
        Info(psiOut, i.gc && groupsEqual)

      case Distinct(c) =>
        val i = analyze(c, x, ck)
        val ok = i.gc && c.columns.forall { a =>
          i.psi.get(a).contains(REq) || checkImplies(ck, i.psi, c, FTrueF, qf.eqGoal(a))
        }
        Info(i.psi, ok)

      case TopK(order, _, c) =>
        val i = analyze(c, x, ck)
        val ok = i.gc && order.forall { case (o, _) =>
          i.psi.get(o).contains(REq) || checkImplies(ck, i.psi, c, FTrueF, qf.eqGoal(o))
        }
        Info(i.psi, ok)

      case Join(l, r, on) =>
        val li = analyze(l, x, ck); val ri = analyze(r, x, ck)
        val ok = li.gc && ri.gc && on.forall { case (a, b) =>
          (li.psi.get(a).contains(REq) ||
            checkImplies(ck, li.psi, l, FTrueF, qf.eqGoal(a))) &&
          (ri.psi.get(b).contains(REq) ||
            checkImplies(ck, ri.psi, r, FTrueF, qf.eqGoal(b)))
        }
        Info(li.psi ++ ri.psi, ok)

      case UnionAll(l, r) =>
        val li = analyze(l, x, ck); val ri = analyze(r, x, ck)
        Info(QueryFormulas.unionPsi(li.psi, ri.psi), li.gc && ri.gc)
    }
  }

  private val FTrueF: Formula = repro.smt.FTrue

  /** Fig. 3b: relation of an aggregation output b to b'. */
  private def aggRel(a: Agg, g: Seq[String], child: Op, x1: Set[String],
                     ck: Checks): Rel = {
    val qf = ck.qf
    // Case (i): every sketch attribute is (provably equal to) a group-by
    // attribute — groups align with fragments, results are identical.
    val xInGroups = x1.forall { xa =>
      g.contains(xa) || g.exists { gc =>
        ck.valid(qf.conds(child, primed = false) ==>
          Atom(SEq, Lin.v(qf.vn(xa, primed = false)), Lin.v(qf.vn(gc, primed = false))))
      }
    }
    if (xInGroups) return REq
    def inputSign(op: repro.smt.CmpOp): Boolean = qf.inputSign(a, child, op, ck.valid)
    a.fn match {
      case FCount => RLe // Case (ii): counts only shrink on a subset
      case FSum if inputSign(repro.smt.Ge) => RLe
      case FMax if inputSign(repro.smt.Ge) => RLe
      case FSum if inputSign(repro.smt.Le) => RGe // Case (iii)
      case FMin if inputSign(repro.smt.Le) => RGe
      case _ => RUnknown // Case (iv): includes avg — the paper's Ex. 5
    }
  }
}
