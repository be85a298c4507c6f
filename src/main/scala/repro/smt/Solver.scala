package repro.smt

import scala.collection.mutable

/** Sound satisfiability/validity checker for quantifier-free linear real
  * arithmetic — the stand-in for the Z3 calls in the paper (Sec. 5/6).
  *
  * Algorithm: negate, push negations (NNF), expand to DNF, decide each
  * conjunct of linear atoms: substitute its equalities away, then run
  * Fourier–Motzkin variable elimination on each variable-disjoint component.
  * FM over the reals is a complete decision procedure for conjunctions of
  * linear constraints; unsat over ℝ implies unsat over ℤ (subset) and over
  * lexicographically ordered strings/dates once mapped order-preservingly to
  * rationals (any countable total order embeds in ℚ), so every `valid = true`
  * answer is sound for all column types the safety checker emits.
  *
  * Incompleteness escape hatch: if DNF expansion exceeds `maxClauses` we give
  * up and report "maybe satisfiable" — i.e. `valid` returns false, which is
  * the sound direction (an attribute set is then conservatively deemed
  * unsafe, exactly like the paper's sound-but-incomplete algorithm).
  */
object Solver {

  /** One normalized constraint: `lin < 0` (strict) or `lin <= 0`. */
  private final case class Cons(lin: Lin, strict: Boolean)

  private val maxClauses = 4096

  /** Is `f` true under every assignment? Sound: `true` is always correct. */
  def valid(f: Formula): Boolean = !satisfiable(FNot(f))

  /** May `f` be satisfiable? Over-approximates: `false` is always correct,
    * `true` may mean "unknown" (DNF blow-up guard).
    */
  def satisfiable(f: Formula): Boolean = {
    val clauses = dnf(nnf(f, neg = false))
    clauses match {
      case None          => true // too big — conservatively satisfiable
      case Some(clauses) => clauses.exists(conjSat)
    }
  }

  /** Negation normal form; `Ne` atoms are split into Lt/Gt disjunctions so
    * DNF only ever sees <, <=, = atoms.
    */
  private def nnf(f: Formula, neg: Boolean): Formula = f match {
    case FTrue            => if (neg) FFalse else FTrue
    case FFalse           => if (neg) FTrue else FFalse
    case FNot(g)          => nnf(g, !neg)
    case FAnd(fs)         => if (neg) FOr(fs.map(nnf(_, neg = true))) else FAnd(fs.map(nnf(_, neg = false)))
    case FOr(fs)          => if (neg) FAnd(fs.map(nnf(_, neg = true))) else FOr(fs.map(nnf(_, neg = false)))
    case Atom(op, l, r)   =>
      val op2 = if (neg) op.negate else op
      op2 match {
        case Ne => FOr(Seq(Atom(Lt, l, r), Atom(Gt, l, r)))
        case o  => Atom(o, l, r)
      }
  }

  /** DNF as a list of atom conjunctions; None if it exceeds `maxClauses`. */
  private def dnf(f: Formula): Option[Seq[Seq[Atom]]] = f match {
    case FTrue        => Some(Seq(Seq.empty))
    case FFalse       => Some(Seq.empty)
    case a: Atom      => Some(Seq(Seq(a)))
    case FOr(fs)      =>
      fs.foldLeft(Option(Seq.empty[Seq[Atom]])) { (acc, g) =>
        for { a <- acc; b <- dnf(g); if a.size + b.size <= maxClauses } yield a ++ b
      }
    case FAnd(fs)     =>
      fs.foldLeft(Option(Seq(Seq.empty[Atom]))) { (acc, g) =>
        for {
          a <- acc; b <- dnf(g)
          prod = for (x <- a; y <- b) yield x ++ y
          if prod.size <= maxClauses
        } yield prod
      }
    case FNot(_)      => throw new IllegalStateException("NNF violated")
  }

  /** Decide a conjunction of atoms exactly over ℚ. Each equality is solved
    * for one of its variables and substituted into the atoms left (Gaussian
    * elimination); one that reduces to a non-zero constant is unsat. The
    * remaining inequalities split into variable-disjoint components, and the
    * conjunction is sat iff Fourier–Motzkin finds every component sat.
    */
  private def conjSat(atoms: Seq[Atom]): Boolean = {
    // Normalize to lin (< | <=) 0, keeping equalities as lin = 0.
    val eqs = Seq.newBuilder[Lin]
    val ineqs = Seq.newBuilder[Cons]
    atoms.foreach { case Atom(op, l, r) =>
      val d = l - r
      op match {
        case Lt => ineqs += Cons(d, strict = true)
        case Le => ineqs += Cons(d, strict = false)
        case Gt => ineqs += Cons(d * Rat(-1), strict = true)
        case Ge => ineqs += Cons(d * Rat(-1), strict = false)
        case Eq => eqs += d
        case Ne => throw new IllegalStateException("Ne must be split before FM")
      }
    }
    var pending = eqs.result()
    var cons = ineqs.result()
    while (pending.nonEmpty) {
      val e = pending.head
      pending = pending.tail
      if (e.isConst) { if (!e.const.isZero) return false }
      else {
        val x = e.vars.min
        val sol = solveFor(e, x)
        pending = pending.map(subst(_, x, sol))
        cons = cons.map(c => Cons(subst(c.lin, x, sol), c.strict))
      }
    }
    val (ground, open) = cons.partition(_.lin.isConst)
    // Union-find over variables: constraints sharing a variable share a root.
    val parent = mutable.HashMap.empty[String, String]
    def find(v: String): String = parent.get(v) match {
      case None    => v
      case Some(p) => val r = find(p); parent(v) = r; r
    }
    open.foreach { c =>
      val root = find(c.lin.vars.head)
      c.lin.vars.foreach { v => val r = find(v); if (r != root) parent(r) = root }
    }
    ground.forall(holds) && open.groupBy(c => find(c.lin.vars.head)).values.forall(fmSat)
  }

  /** `x = sol` is the solution of `lin = 0` (or its bound, for `lin ≤ 0`). */
  private def solveFor(lin: Lin, x: String): Lin =
    (lin - Lin(Map(x -> lin.coeff(x)), Rat.zero)) * (Rat(-1) / lin.coeff(x))

  /** `lin` with `sol` in place of `x`. */
  private def subst(lin: Lin, x: String, sol: Lin): Lin = {
    val c = lin.coeff(x)
    if (c.isZero) lin else Lin(lin.coeffs - x, lin.const) + sol * c
  }

  private def holds(c: Cons): Boolean =
    if (c.strict) c.lin.const.signum < 0 else c.lin.const.signum <= 0

  /** Fourier–Motzkin variable elimination over one set of constraints. */
  private def fmSat(cons0: Seq[Cons]): Boolean = {
    var cons = cons0
    var vars = cons.flatMap(_.lin.vars).distinct
    while (vars.nonEmpty) {
      // Eliminate the variable occurring least often to bound pair blow-up.
      val x = vars.minBy(v => cons.count(_.lin.vars.contains(v)))
      val (withX, without) = cons.partition(_.lin.vars.contains(x))
      // Solve each constraint for x: x <= ub (coeff > 0) or lb <= x (coeff < 0).
      val ubs = withX.collect { case Cons(lin, s) if lin.coeff(x).signum > 0 => (solveFor(lin, x), s) }
      val lbs = withX.collect { case Cons(lin, s) if lin.coeff(x).signum < 0 => (solveFor(lin, x), s) }
      cons = without ++ (for ((lb, ls) <- lbs; (ub, us) <- ubs)
        yield Cons(lb - ub, strict = ls || us))
      vars = cons.flatMap(_.lin.vars).distinct
      if (cons.size > 200000) return true // blow-up guard: unknown → sat
    }
    cons.forall(holds)
  }
}
