package repro.smt

import org.scalatest.funsuite.AnyFunSuite

class RatSpec extends AnyFunSuite {
  test("construction reduces and normalizes sign") {
    assert(Rat(2, 4) == Rat(1, 2))
    assert(Rat(1, -2) == Rat(-1, 2))
    assert(Rat(-3, -6) == Rat(1, 2))
    assert(Rat(0, 5) == Rat.zero)
  }
  test("arithmetic") {
    assert(Rat(1, 2) + Rat(1, 3) == Rat(5, 6))
    assert(Rat(1, 2) - Rat(1, 3) == Rat(1, 6))
    assert(Rat(2, 3) * Rat(3, 4) == Rat(1, 2))
    assert(Rat(1, 2) / Rat(1, 4) == Rat(2))
    assert(-Rat(1, 2) == Rat(-1, 2))
  }
  test("ordering") {
    assert(Rat(1, 3) < Rat(1, 2))
    assert(Rat(-1, 2) < Rat.zero)
    assert(Rat(7) > Rat(13, 2))
  }
  test("fromDouble is exact for decimal literals") {
    assert(Rat.fromDouble(0.5) == Rat(1, 2))
    assert(Rat.fromDouble(10.0) == Rat(10))
    assert(Rat.fromDouble(-2.25) == Rat(-9, 4))
  }
  test("division by zero rejected") {
    intercept[IllegalArgumentException](Rat(1, 0))
    intercept[IllegalArgumentException](Rat(1, 2) / Rat.zero)
  }
}

class LinSpec extends AnyFunSuite {
  test("addition merges coefficients and drops zeros") {
    val l = Lin.v("x") + Lin.v("y") - Lin.v("x")
    assert(l.vars == Set("y"))
    assert(l.coeff("y") == Rat.one)
  }
  test("scaling") {
    val l = (Lin.v("x") + Lin.c(3)) * Rat(2)
    assert(l.coeff("x") == Rat(2))
    assert(l.const == Rat(6))
  }
  test("constant detection") {
    assert(Lin.c(5).isConst)
    assert(!Lin.v("x").isConst)
  }
}

class SolverSpec extends AnyFunSuite {
  import Formula._
  private def v(s: String) = Lin.v(s)
  private def k(l: Long)   = Lin.c(l)

  // --- satisfiability basics -------------------------------------------
  test("x < x is unsat")    { assert(!Solver.satisfiable(Atom(Lt, v("x"), v("x")))) }
  test("x <= x is sat")     { assert(Solver.satisfiable(Atom(Le, v("x"), v("x")))) }
  test("x < 5 and x > 3 is sat") {
    assert(Solver.satisfiable(Atom(Lt, v("x"), k(5)) && Atom(Gt, v("x"), k(3))))
  }
  test("x < 3 and x > 5 is unsat") {
    assert(!Solver.satisfiable(Atom(Lt, v("x"), k(3)) && Atom(Gt, v("x"), k(5))))
  }
  test("strict cycle x < y, y < z, z < x is unsat") {
    assert(!Solver.satisfiable(
      Atom(Lt, v("x"), v("y")) && Atom(Lt, v("y"), v("z")) && Atom(Lt, v("z"), v("x"))))
  }
  test("non-strict cycle x <= y <= z <= x is sat") {
    assert(Solver.satisfiable(
      Atom(Le, v("x"), v("y")) && Atom(Le, v("y"), v("z")) && Atom(Le, v("z"), v("x"))))
  }
  test("equality chain with contradiction is unsat") {
    assert(!Solver.satisfiable(
      Atom(Eq, v("x"), v("y")) && Atom(Eq, v("y"), v("z")) && Atom(Gt, v("x"), v("z"))))
  }
  test("x = 5 and x != 5 is unsat") {
    assert(!Solver.satisfiable(Atom(Eq, v("x"), k(5)) && Atom(Ne, v("x"), k(5))))
  }
  test("x != 5 alone is sat") { assert(Solver.satisfiable(Atom(Ne, v("x"), k(5)))) }
  test("linear combination: x + y <= 2, x >= 2, y >= 1 is unsat") {
    assert(!Solver.satisfiable(
      Atom(Le, v("x") + v("y"), k(2)) && Atom(Ge, v("x"), k(2)) && Atom(Ge, v("y"), k(1))))
  }
  test("coefficients: 2x <= 5 and x >= 3 is unsat") {
    assert(!Solver.satisfiable(
      Atom(Le, v("x") * Rat(2), k(5)) && Atom(Ge, v("x"), k(3))))
  }
  test("disjunction: (x<0 or x>10) and x=5 is unsat") {
    assert(!Solver.satisfiable(
      (Atom(Lt, v("x"), k(0)) || Atom(Gt, v("x"), k(10))) && Atom(Eq, v("x"), k(5))))
  }
  test("disjunction: (x<0 or x>10) and x=11 is sat") {
    assert(Solver.satisfiable(
      (Atom(Lt, v("x"), k(0)) || Atom(Gt, v("x"), k(10))) && Atom(Eq, v("x"), k(11))))
  }
  test("FTrue sat, FFalse unsat") {
    assert(Solver.satisfiable(FTrue))
    assert(!Solver.satisfiable(FFalse))
  }

  // --- validity --------------------------------------------------------
  test("valid: x = y implies y = x") {
    assert(Solver.valid(eqv("x", "y") ==> eqv("y", "x")))
  }
  test("valid: x <= y and y <= z implies x <= z") {
    assert(Solver.valid((leq("x", "y") && leq("y", "z")) ==> leq("x", "z")))
  }
  test("not valid: x <= y implies x = y") {
    assert(!Solver.valid(leq("x", "y") ==> eqv("x", "y")))
  }
  test("paper Ex.6 shape: totden<=totden' and totden<7000 does NOT imply totden'<7000") {
    val f = (Atom(Le, v("t"), v("tp")) && Atom(Lt, v("t"), k(7000))) ==> Atom(Lt, v("tp"), k(7000))
    assert(!Solver.valid(f))
  }
  test("selection-safety shape: t=t' and t<7000 implies t'<7000") {
    val f = (Atom(Eq, v("t"), v("tp")) && Atom(Lt, v("t"), k(7000))) ==> Atom(Lt, v("tp"), k(7000))
    assert(Solver.valid(f))
  }
  test("paper Ex.7 reuse shape: cnt=cnt' and cnt'>15 implies cnt>10") {
    val f = (Atom(Eq, v("cnt"), v("cntp")) && Atom(Gt, v("cntp"), k(15))) ==> Atom(Gt, v("cnt"), k(10))
    assert(Solver.valid(f))
  }
  test("reverse reuse shape: cnt=cnt' and cnt'>10 does not imply cnt>15") {
    val f = (Atom(Eq, v("cnt"), v("cntp")) && Atom(Gt, v("cntp"), k(10))) ==> Atom(Gt, v("cnt"), k(15))
    assert(!Solver.valid(f))
  }
  test("valid with arithmetic: a+b=x and a=a' and b=b' and a'+b'=x' implies x=x'") {
    val f = (Atom(Eq, v("a") + v("b"), v("x")) && eqv("a", "ap") && eqv("b", "bp") &&
             Atom(Eq, v("ap") + v("bp"), v("xp"))) ==> eqv("x", "xp")
    assert(Solver.valid(f))
  }
  test("bounds from stats: a>=1 and a<=9 implies a<10") {
    val f = (Atom(Ge, v("a"), k(1)) && Atom(Le, v("a"), k(9))) ==> Atom(Lt, v("a"), k(10))
    assert(Solver.valid(f))
  }
  test("contradictory antecedent implies anything") {
    val f = (Atom(Lt, v("a"), k(0)) && Atom(Gt, v("a"), k(0))) ==> Atom(Eq, v("z"), k(42))
    assert(Solver.valid(f))
  }
  test("vacuous forall over disjunctive antecedent") {
    // (a<0 or a>10) and a=a' -> (a'<0 or a'>10)
    val ante = (Atom(Lt, v("a"), k(0)) || Atom(Gt, v("a"), k(10))) && eqv("a", "ap")
    val cons = Atom(Lt, v("ap"), k(0)) || Atom(Gt, v("ap"), k(10))
    assert(Solver.valid(ante ==> cons))
  }

  // --- equality substitution and components -----------------------------
  test("equality with a non-unit coefficient: 2x = y, y = 3, x > 2 is unsat") {
    assert(!Solver.satisfiable(
      Atom(Eq, v("x") * Rat(2), v("y")) && Atom(Eq, v("y"), k(3)) && Atom(Gt, v("x"), k(2))))
    assert(Solver.satisfiable(
      Atom(Eq, v("x") * Rat(2), v("y")) && Atom(Eq, v("y"), k(3)) && Atom(Gt, v("x"), k(1))))
  }
  test("contradiction only after substitution: x = y, y = z, x = z + 1 is unsat") {
    assert(!Solver.satisfiable(
      Atom(Eq, v("x"), v("y")) && Atom(Eq, v("y"), v("z")) && Atom(Eq, v("x"), v("z") + k(1))))
  }
  test("strictness survives substitution: x = y, y < x unsat; x = y, y <= x sat") {
    assert(!Solver.satisfiable(Atom(Eq, v("x"), v("y")) && Atom(Lt, v("y"), v("x"))))
    assert(Solver.satisfiable(Atom(Eq, v("x"), v("y")) && Atom(Le, v("y"), v("x"))))
  }
  test("an unsat component sharing no variable with the goal makes it valid") {
    // the antecedent's contradiction is over a, b; the goal is over y, z
    val ante = Atom(Eq, v("a"), v("b")) && Atom(Lt, v("a"), v("b")) && Atom(Le, v("y"), k(3))
    assert(Solver.valid(ante ==> Atom(Gt, v("z"), v("y"))))
    // without it, the goal does not follow
    assert(!Solver.valid(Atom(Le, v("y"), k(3)) ==> Atom(Gt, v("z"), v("y"))))
  }

  // --- property: solver never calls a truly-satisfied system unsat -----
  private val ops = Seq[CmpOp](Lt, Le, Eq, Ne, Ge, Gt)
  private val names = Seq("x", "y", "z")

  test("property: if a random integer assignment satisfies the conjunction, sat=true") {
    val rnd = new scala.util.Random(42)
    var checked = 0
    for (_ <- 1 to 2000) {
      val asg = names.map(_ -> (rnd.nextLong(21) - 10)).toMap
      val atoms = Seq.fill(3) {
        (ops(rnd.nextInt(ops.size)), names(rnd.nextInt(3)), names(rnd.nextInt(3)),
         rnd.nextLong(21) - 10)
      }
      val holdsAll = atoms.forall { case (op, a, b, c) =>
        val l = asg(a); val r = asg(b) + c
        op match {
          case Lt => l < r;  case Le => l <= r; case Eq => l == r
          case Ne => l != r; case Ge => l >= r; case Gt => l > r
        }
      }
      if (holdsAll) {
        checked += 1
        val f = Formula.all(atoms.map { case (op, a, b, c) =>
          Atom(op, Lin.v(a), Lin.v(b) + Lin.c(c))
        })
        assert(Solver.satisfiable(f), s"satisfied by $asg but solver said unsat: $atoms")
      }
    }
    assert(checked > 20, s"property exercised only $checked times")
  }

  /** Value of `f` under an integer assignment. */
  private def eval(f: Formula, asg: Map[String, Long]): Boolean = f match {
    case FTrue          => true
    case FFalse         => false
    case FNot(g)        => !eval(g, asg)
    case FAnd(fs)       => fs.forall(eval(_, asg))
    case FOr(fs)        => fs.exists(eval(_, asg))
    case Atom(op, l, r) =>
      val d = (l - r).coeffs.foldLeft((l - r).const) { case (acc, (x, c)) => acc + c * Rat(asg(x)) }
      op match {
        case Lt => d.signum < 0;  case Le => d.signum <= 0; case Eq => d.isZero
        case Ne => !d.isZero;     case Ge => d.signum >= 0; case Gt => d.signum > 0
      }
  }

  test("property: a valid formula has no counterexample in [-4, 4]^3") {
    val rnd = new scala.util.Random(11)
    val cmp = Seq[CmpOp](Eq, Ne, Lt, Le)
    // Each side is c + a·u (+ b·w): at most two variables, small integer
    // coefficients. Atoms come from a pool of three per formula, so that
    // formulas repeat atoms and some are valid by their structure.
    def term(): Lin = Seq.fill(1 + rnd.nextInt(2))(names(rnd.nextInt(3))).foldLeft(Lin.c(rnd.nextLong(7) - 3)) {
      (acc, n) => acc + v(n) * Rat(rnd.nextLong(5) - 2)
    }
    def formula(pool: IndexedSeq[Formula], depth: Int): Formula =
      if (depth == 0 || rnd.nextInt(3) == 0) pool(rnd.nextInt(pool.size))
      else rnd.nextInt(4) match {
        case 0 => formula(pool, depth - 1) && formula(pool, depth - 1)
        case 1 => formula(pool, depth - 1) || formula(pool, depth - 1)
        case 2 => !formula(pool, depth - 1)
        case _ => formula(pool, depth - 1) ==> formula(pool, depth - 1)
      }
    val grid = for (x <- -4L to 4L; y <- -4L to 4L; z <- -4L to 4L)
      yield Map("x" -> x, "y" -> y, "z" -> z)
    var valid = 0
    for (_ <- 1 to 2000) {
      val pool = IndexedSeq.fill(3)(Atom(cmp(rnd.nextInt(cmp.size)), term(), term()): Formula)
      val f = formula(pool, 3)
      if (Solver.valid(f)) {
        valid += 1
        grid.find(a => !eval(f, a)).foreach(a => fail(s"valid but falsified by $a: $f"))
      }
    }
    info(s"$valid valid formulas checked")
    assert(valid > 200, s"property exercised only $valid times")
  }

  test("property: valid implications detected for transitive chains") {
    val rnd = new scala.util.Random(7)
    for (_ <- 1 to 100) {
      val c1 = rnd.nextLong(11) - 5; val c2 = rnd.nextLong(11) - 5
      // x <= y + c1 and y <= z + c2 implies x <= z + (c1+c2)
      val f = (Atom(Le, v("x"), v("y") + Lin.c(c1)) && Atom(Le, v("y"), v("z") + Lin.c(c2))) ==>
        Atom(Le, v("x"), v("z") + Lin.c(c1 + c2))
      assert(Solver.valid(f))
      // ... and the converse with a strictly smaller slack is not valid
      val g = (Atom(Le, v("x"), v("y") + Lin.c(c1)) && Atom(Le, v("y"), v("z") + Lin.c(c2))) ==>
        Atom(Le, v("x"), v("z") + Lin.c(c1 + c2 - 1))
      assert(!Solver.valid(g))
    }
  }
}
