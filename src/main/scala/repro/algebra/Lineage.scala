package repro.algebra

/** Brute-force bag-semantics interpreter with Lineage provenance.
  *
  * This is the reproduction's provenance substrate (paper Sec. 3.2): each
  * result tuple carries the set of (table, rowId) input tuples it was derived
  * from, following the Lineage model [Cui/Widom]. Capture tests use it as
  * ground truth: a provenance sketch must cover `provenance(Q, D)` (Def. 3),
  * and evaluating Q over the sketch instance of a *safe* sketch must equal
  * Q(D). Only meant for small test inputs — O(n²) joins, full materialization.
  * NULLs follow SQL: arithmetic on NULL is NULL, a comparison with NULL is
  * unknown (three-valued logic), joins never match NULL keys, and
  * aggregates skip NULL inputs (a NULL result over none but `count`).
  */
object Lineage {

  /** One tuple occurrence: attribute values + lineage (table, rowId) set. */
  final case class ATuple(values: Map[String, Any], prov: Set[(String, Long)])

  type Db = Map[String, Seq[Map[String, Any]]]

  // --- value helpers ----------------------------------------------------
  private def num(v: Any): Double = v match {
    case l: Long    => l.toDouble
    case i: Int     => i.toDouble
    case d: Double  => d
    case f: Float   => f.toDouble
    case b: java.math.BigDecimal => b.doubleValue
    case s: String  => s.toDouble
    case other      => sys.error(s"not numeric: $other (${other.getClass})")
  }

  private def isIntegral(v: Any): Boolean = v match {
    case _: Long | _: Int => true
    case _                => false
  }

  def compareAny(a: Any, b: Any): Int = (a, b) match {
    case (x: String, y: String)               => x.compareTo(y)
    case (x: java.sql.Date, y: java.sql.Date) => x.compareTo(y)
    case (x: java.sql.Date, y: String)        => x.toString.compareTo(y)
    case (x: String, y: java.sql.Date)        => x.compareTo(y.toString)
    case _                                    => java.lang.Double.compare(num(a), num(b))
  }

  /** Null-safe equality (SQL `<=>`): min/max lineage keeps the rows whose
    * input equals the extreme, a NULL extreme included.
    */
  private def sameValue(a: Any, b: Any): Boolean =
    if (a == null || b == null) a == null && b == null else compareAny(a, b) == 0

  def evalExpr(e: Expr, t: Map[String, Any]): Any = e match {
    case Col(n)   => t.getOrElse(n, sys.error(s"no column $n in ${t.keys}"))
    case Lit(v)   => v
    case Param(n) => sys.error(s"unbound parameter $$$n")
    case Arith(op, l, r) =>
      val a = evalExpr(l, t); val b = evalExpr(r, t)
      if (a == null || b == null) null
      else op match {
        case "/" => num(a) / num(b)
        case _ =>
          if (isIntegral(a) && isIntegral(b)) {
            val x = num(a).toLong; val y = num(b).toLong
            op match { case "+" => x + y; case "-" => x - y; case "*" => x * y }
          } else {
            val x = num(a); val y = num(b)
            op match { case "+" => x + y; case "-" => x - y; case "*" => x * y }
          }
      }
  }

  /** Whether `t` satisfies `p`; an unknown result (NULL) does not. */
  def evalPred(p: Pred, t: Map[String, Any]): Boolean = eval3(p, t).contains(true)

  /** Three-valued `p`: None is unknown. */
  private def eval3(p: Pred, t: Map[String, Any]): Option[Boolean] = p match {
    case Cmp(op, l, r) =>
      val a = evalExpr(l, t); val b = evalExpr(r, t)
      if (a == null || b == null) None
      else {
        val c = compareAny(a, b)
        Some(op match {
          case "<" => c < 0; case "<=" => c <= 0; case "=" => c == 0
          case "<>" => c != 0; case ">=" => c >= 0; case ">" => c > 0
        })
      }
    case PAnd(l, r) => (eval3(l, t), eval3(r, t)) match {
      case (Some(false), _) | (_, Some(false)) => Some(false)
      case (Some(true), Some(true))            => Some(true)
      case _                                   => None
    }
    case POr(l, r) => (eval3(l, t), eval3(r, t)) match {
      case (Some(true), _) | (_, Some(true)) => Some(true)
      case (Some(false), Some(false))        => Some(false)
      case _                                 => None
    }
    case PNot(q) => eval3(q, t).map(!_)
    case PTrue   => Some(true)
  }

  private def aggValue(fn: AggFn, all: Seq[Any]): Any = {
    val vs = all.filter(_ != null)
    fn match {
      case FCount          => vs.size.toLong
      case _ if vs.isEmpty => null
      case FSum =>
        if (vs.forall(isIntegral)) vs.map(num(_).toLong).sum else vs.map(num).sum
      case FAvg => vs.map(num).sum / vs.size
      case FMin => vs.reduce((a, b) => if (compareAny(a, b) <= 0) a else b)
      case FMax => vs.reduce((a, b) => if (compareAny(a, b) >= 0) a else b)
    }
  }

  // --- interpreter ------------------------------------------------------
  def run(op: Op, db: Db): Seq[ATuple] = op match {
    case TableRef(name, schema) =>
      val rows = db.getOrElse(name, sys.error(s"no table $name"))
      rows.zipWithIndex.map { case (r, i) =>
        ATuple(schema.map { case (c, _) => c -> r(c) }.toMap, Set(name -> i.toLong))
      }
    case Select(p, c) =>
      run(c, db).filter(t => evalPred(p, t.values))
    case Project(items, c) =>
      run(c, db).map(t => ATuple(items.map { case (e, a) => a -> evalExpr(e, t.values) }.toMap, t.prov))
    case Aggregate(g, aggs, c) =>
      val in = run(c, db)
      val groups =
        if (g.isEmpty) Seq(Map.empty[String, Any] -> in)
        else in.groupBy(t => g.map(k => k -> t.values(k)).toMap).toSeq
      groups.map { case (key, ts) =>
        val aggVals = aggs.map(a => a.alias -> aggValue(a.fn, ts.map(t => evalExpr(a.input, t.values))))
        // Lineage: whole group; refined to extreme-achieving tuples when the
        // ONLY aggregates are min/max (mirrors capture rule r3 first branch).
        val prov: Set[(String, Long)] =
          if (aggs.nonEmpty && aggs.forall(a => a.fn == FMin || a.fn == FMax)) {
            aggs.flatMap { a =>
              val extreme = aggValue(a.fn, ts.map(t => evalExpr(a.input, t.values)))
              ts.filter(t => sameValue(evalExpr(a.input, t.values), extreme))
            }.flatMap(_.prov).toSet
          } else ts.flatMap(_.prov).toSet
        ATuple(key ++ aggVals.toMap, prov)
      }
    case TopK(order, k, c) =>
      val in = run(c, db)
      val sorted = in.sortWith { (a, b) =>
        val byKeys = order.iterator.map { case (col, asc) =>
          val cmp = compareAny(a.values(col), b.values(col))
          if (asc) cmp else -cmp
        }.find(_ != 0).getOrElse(0)
        if (byKeys != 0) byKeys < 0
        else a.values.toSeq.sortBy(_._1).mkString < b.values.toSeq.sortBy(_._1).mkString
      }
      sorted.take(k)
    case Join(l, r, on) =>
      val lf = run(l, db); val rf = run(r, db)
      for {
        a <- lf; b <- rf
        if on.forall { case (lc, rc) =>
          a.values(lc) != null && b.values(rc) != null && compareAny(a.values(lc), b.values(rc)) == 0 }
      } yield ATuple(a.values ++ b.values, a.prov ++ b.prov)
    case UnionAll(l, r) =>
      // Union aligns by position (bag union); attr names of the left prevail.
      val lc = l.columns; val rc = r.columns
      run(l, db) ++ run(r, db).map(t =>
        ATuple(lc.zip(rc).map { case (ln, rn) => ln -> t.values(rn) }.toMap, t.prov))
    case Distinct(c) =>
      run(c, db).groupBy(_.values).toSeq.map { case (v, ts) =>
        ATuple(v, ts.flatMap(_.prov).toSet)
      }
  }

  /** Lineage of the whole query: union over all result tuples (Sec. 3.2). */
  def provenance(op: Op, db: Db): Set[(String, Long)] =
    run(op, db).flatMap(_.prov).toSet

  /** Evaluate ignoring provenance — for Q(D_PS) = Q(D) ground-truth checks. */
  def result(op: Op, db: Db): Seq[Map[String, Any]] = run(op, db).map(_.values)

  /** Multiset equality of results, canonicalizing numeric values. */
  def sameResult(a: Seq[Map[String, Any]], b: Seq[Map[String, Any]]): Boolean = {
    def canon(rows: Seq[Map[String, Any]]) =
      rows.map(_.view.mapValues {
        case v if isIntegral(v) => f"${num(v)}%.6f"
        case d: Double          => f"$d%.6f"
        case x                  => String.valueOf(x)
      }.toMap).sortBy(_.toSeq.sortBy(_._1).mkString)
    canon(a) == canon(b)
  }
}
