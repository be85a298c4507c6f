package repro.algebra

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Compile the algebra IR to a Catalyst DataFrame plan.
  *
  * The catalog maps base-table names to DataFrames (cached tables, Parquet
  * scans from the ZoneMapStore, or pruned scans when a sketch is applied).
  */
object ToSpark {

  def expr(e: Expr): Column = e match {
    case Col(n)              => col(n)
    case Lit(d: java.sql.Date) => lit(d.toString).cast("date")
    case Lit(v)              => lit(v)
    case Param(n)            => sys.error(s"unbound parameter $$$n — call Algebra.bind first")
    case Arith("+", l, r)    => expr(l) + expr(r)
    case Arith("-", l, r)    => expr(l) - expr(r)
    case Arith("*", l, r)    => expr(l) * expr(r)
    case Arith("/", l, r)    => expr(l) / expr(r)
    case Arith(o, _, _)      => sys.error(s"unknown arithmetic op $o")
  }

  def pred(p: Pred): Column = p match {
    case Cmp("<", l, r)  => expr(l) < expr(r)
    case Cmp("<=", l, r) => expr(l) <= expr(r)
    case Cmp("=", l, r)  => expr(l) === expr(r)
    case Cmp("<>", l, r) => expr(l) =!= expr(r)
    case Cmp(">=", l, r) => expr(l) >= expr(r)
    case Cmp(">", l, r)  => expr(l) > expr(r)
    case Cmp(o, _, _)    => sys.error(s"unknown comparison op $o")
    case PAnd(l, r)      => pred(l) && pred(r)
    case POr(l, r)       => pred(l) || pred(r)
    case PNot(q)         => !pred(q)
    case PTrue           => lit(true)
  }

  private[repro] def aggCol(a: Agg): Column = {
    val in = expr(a.input)
    val c = a.fn match {
      case FSum   => sum(in)
      case FCount => count(in)
      case FMin   => min(in)
      case FMax   => max(in)
      case FAvg   => avg(in)
    }
    c.as(a.alias)
  }

  def compile(op: Op, catalog: Map[String, DataFrame]): DataFrame = op match {
    case TableRef(name, schema) =>
      val df = catalog.getOrElse(name, sys.error(s"table $name not in catalog"))
      df.select(schema.map(f => col(f._1)): _*)
    case Select(p, c) =>
      compile(c, catalog).filter(pred(p))
    case Project(items, c) =>
      compile(c, catalog).select(items.map { case (e, a) => expr(e).as(a) }: _*)
    case Aggregate(g, aggs, c) =>
      val df = compile(c, catalog)
      val cols = aggs.map(aggCol)
      if (g.isEmpty) df.agg(cols.head, cols.tail: _*)
      else df.groupBy(g.map(col): _*).agg(cols.head, cols.tail: _*)
    case TopK(order, k, c) =>
      val df = compile(c, catalog)
      df.orderBy(order.map { case (n, asc) => if (asc) col(n).asc else col(n).desc }: _*)
        .limit(k)
    case Join(l, r, on) =>
      val lf = compile(l, catalog); val rf = compile(r, catalog)
      val cond = on.map { case (lc, rc) => lf(lc) === rf(rc) }.reduce(_ && _)
      lf.join(rf, cond, "inner")
    case UnionAll(l, r) =>
      compile(l, catalog).unionByName(compile(r, catalog))
    case Distinct(c) =>
      compile(c, catalog).distinct()
  }
}
