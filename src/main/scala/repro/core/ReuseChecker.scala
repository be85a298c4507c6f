package repro.core

import repro.algebra._
import repro.smt.{Formula, Solver}

/** Sketch reuse across instances of a parameterized query (paper Sec. 6).
  *
  * `canReuse(T, old, new)` soundly decides whether a (safe, accurate)
  * sketch captured for instance Q = T[old] can answer Q' = T[new]: it
  * implies P(Q', D) ⊆ P(Q, D) for every database D (Thm. 3), via the
  * ge(Q', Q) rules of Fig. 4 plus the global implication uconds(Q', Q).
  * Variable convention: unprimed = Q (sketch holder), primed = Q'.
  */
object ReuseChecker {

  private final case class Info(psi: Map[String, Rel], ge: Boolean)

  def canReuse(template: Op, oldBinding: Map[String, Any], newBinding: Map[String, Any],
               stats: SafetyChecker.Stats = SafetyChecker.Stats()): Boolean = {
    val qOld = Algebra.bind(template, oldBinding)
    val qNew = Algebra.bind(template, newBinding)
    val qf = QueryFormulas.forQueries(Seq(qOld, qNew), stats.minMax)
    val i = ge(qNew, qOld, qf)
    i.ge && uconds(qNew, qOld, i.psi, qf)
  }

  /** uconds(Q',Q): Ψ ∧ pred(Q') ∧ expr(Q') ∧ expr(Q) → pred(Q). */
  private def uconds(qNew: Op, qOld: Op, psi: Map[String, Rel], qf: QueryFormulas): Boolean = {
    val ante = qf.psiFormula(psi) &&
      qf.predOf(qNew, primed = true, ante = true) &&
      qf.exprOf(qNew, primed = true) &&
      qf.exprOf(qOld, primed = false)
    Solver.valid(ante ==> qf.predOf(qOld, primed = false, ante = false))
  }

  /** Ψ ∧ conds(Q₁) ∧ conds(Q₁') → goal. */
  private def checkImplies(qf: QueryFormulas, psi: Map[String, Rel],
                           subOld: Op, subNew: Op, goal: Formula): Boolean =
    Solver.valid((qf.psiFormula(psi) && qf.conds(subOld, primed = false) &&
      qf.conds(subNew, primed = true)) ==> goal)

  /** Parallel walk of the two instances (identical shape by construction). */
  private def ge(qNew: Op, qOld: Op, qf: QueryFormulas): Info = (qNew, qOld) match {
    case (t: TableRef, _) => Info(QueryFormulas.allEq(t.columns), ge = true)

    // Selections are NOT compared locally — only the global uconds test
    // (avoids the σ_{a=20}(σ_{a>30}) counterexample of Sec. 6).
    case (Select(_, cN), Select(_, cO)) => ge(cN, cO, qf)

    case (Project(itemsN, cN), Project(_, cO)) =>
      val i = ge(cN, cO, qf)
      Info(i.psi ++ itemsN.map { case (e, a) => a -> qf.projRel(e, i.psi) }.toMap, i.ge)

    case (Aggregate(g, aggsN, cN), Aggregate(_, aggsO, cO)) =>
      val i = ge(cN, cO, qf)
      val groupsEqual = g.forall { gc =>
        i.psi.get(gc).contains(REq) || checkImplies(qf, i.psi, cO, cN, qf.eqGoal(gc))
      }
      // ① / ② of Fig. 4b: group-containment via non-group-by predicates.
      val gSet = g.toSet
      def ngp(sub: Op, primed: Boolean, ante: Boolean): Formula =
        qf.predOf(sub, primed, ante, drop = c => c.cols.nonEmpty && c.cols.subsetOf(gSet))
      val exprs = qf.exprOf(cO, primed = false) && qf.exprOf(cN, primed = true)
      val cond1 = Solver.valid((qf.psiFormula(i.psi) &&
        ngp(cO, primed = false, ante = true) && exprs) ==> ngp(cN, primed = true, ante = false))
      val cond2 = Solver.valid((qf.psiFormula(i.psi) &&
        ngp(cN, primed = true, ante = true) && exprs) ==> ngp(cO, primed = false, ante = false))
      def inputSign(a: Agg, op: repro.smt.CmpOp): Boolean = qf.inputSign(a, cO, op, Solver.valid)
      val aggPsi = aggsN.zip(aggsO).map { case (aN, aO) =>
        // Under ② each Q' group is a subset of its Q group, so: min grows
        // (b ≤ b'), count/max/positive-sum shrink (b ≥ b'). Min/max need no
        // sign condition — subset monotonicity holds regardless.
        val rel: Rel =
          if (cond1 && cond2) REq
          else if (cond2 && ((aO.fn == FSum && inputSign(aO, repro.smt.Lt)) || aO.fn == FMin)) RLe
          else if (cond2 && (aO.fn == FCount || aO.fn == FMax ||
                   (aO.fn == FSum && inputSign(aO, repro.smt.Gt)))) RGe
          else RUnknown
        aN.alias -> rel
      }.toMap
      Info(i.psi ++ aggPsi, i.ge && groupsEqual)

    case (Distinct(cN), Distinct(cO)) =>
      val i = ge(cN, cO, qf)
      val ok = i.ge && cN.columns.forall { a =>
        i.psi.get(a).contains(REq) || checkImplies(qf, i.psi, cO, cN, qf.eqGoal(a))
      }
      Info(i.psi, ok)

    // τ is not covered by Fig. 4; sound fallback — reuse only when the
    // subtrees are provably equivalent (then the top-k sets coincide).
    case (TopK(order, _, cN), TopK(_, _, cO)) =>
      val i = ge(cN, cO, qf)
      val allEqBelow = cN.columns.forall(a => i.psi.get(a).contains(REq))
      val fwd = Solver.valid((qf.psiFormula(i.psi) &&
        qf.predOf(cN, primed = true, ante = true) && qf.exprOf(cN, primed = true) &&
        qf.exprOf(cO, primed = false)) ==> qf.predOf(cO, primed = false, ante = false))
      val bwd = Solver.valid((qf.psiFormula(i.psi) &&
        qf.predOf(cO, primed = false, ante = true) && qf.exprOf(cO, primed = false) &&
        qf.exprOf(cN, primed = true)) ==> qf.predOf(cN, primed = true, ante = false))
      Info(i.psi, i.ge && allEqBelow && fwd && bwd && order.forall(o => i.psi.get(o._1).contains(REq)))

    case (Join(lN, rN, on), Join(lO, rO, _)) =>
      val li = ge(lN, lO, qf); val ri = ge(rN, rO, qf)
      val ok = li.ge && ri.ge && on.forall { case (a, b) =>
        (li.psi.get(a).contains(REq) || checkImplies(qf, li.psi, lO, lN, qf.eqGoal(a))) &&
        (ri.psi.get(b).contains(REq) || checkImplies(qf, ri.psi, rO, rN, qf.eqGoal(b)))
      }
      Info(li.psi ++ ri.psi, ok)

    case (UnionAll(lN, rN), UnionAll(lO, rO)) =>
      val li = ge(lN, lO, qf); val ri = ge(rN, rO, qf)
      Info(QueryFormulas.unionPsi(li.psi, ri.psi), li.ge && ri.ge)

    case (a, b) => sys.error(s"instances differ in shape: $a vs $b")
  }
}
