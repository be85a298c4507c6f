package repro.workloads

import java.sql.Date

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.algebra._
import repro.core.RangePartition
import repro.core.SafetyChecker.Stats

/** TPC-H-lite workload: the paper's TPC-H queries adapted to the synthetic
  * lineitem/orders/customer/part/supplier schema (DESIGN.md lists the
  * substitution). One representative query per class the evaluation's
  * numbers hinge on:
  *   Q1  — non-selective aggregate (provenance ≈ whole input; PBDS no-op)
  *   Q3  — selective top-10 3-way join
  *   Q5  — multi-join aggregate over nations (full-order top-25)
  *   Q10 — top-20 customers by revenue
  *   Q15 — top revenue supplier (max-style)
  *   Q17 — correlated-avg yardstick (second lineitem access aliased)
  *   Q18 — large-order HAVING + top-100
  *   Q19 — global aggregate over disjunctive condition
  */
object TpchLite {

  val lineitem: TableRef = TableRef("lineitem", Seq(
    "l_orderkey" -> TLong, "l_partkey" -> TLong, "l_linenumber" -> TInt,
    "l_quantity" -> TDouble, "l_extendedprice" -> TDouble, "l_discount" -> TDouble,
    "l_tax" -> TDouble, "l_returnflag" -> TString, "l_linestatus" -> TString,
    "l_shipdate" -> TDate, "l_suppkey" -> TLong))

  /** Second logical access to lineitem (Q17) under fresh attribute names —
    * keeps the paper's "each relation accessed once" capture assumption.
    */
  val lineitem2: TableRef = TableRef("lineitem2",
    Seq("l2_partkey" -> TLong, "l2_quantity" -> TDouble))

  val orders: TableRef = TableRef("orders", Seq(
    "o_orderkey" -> TLong, "o_custkey" -> TLong, "o_orderstatus" -> TString,
    "o_totalprice" -> TDouble, "o_orderdate" -> TDate))

  val customer: TableRef = TableRef("customer", Seq(
    "c_custkey" -> TLong, "c_nationkey" -> TInt, "c_acctbal" -> TDouble,
    "c_mktsegment" -> TString))

  val part: TableRef = TableRef("part", Seq(
    "p_partkey" -> TLong, "p_type" -> TString, "p_size" -> TInt,
    "p_retailprice" -> TDouble))

  val supplier: TableRef = TableRef("supplier", Seq(
    "s_suppkey" -> TLong, "s_nationkey" -> TInt, "s_acctbal" -> TDouble))

  def d(s: String): Date = Date.valueOf(s)

  private val revenue: Expr = Col("l_extendedprice") * (Lit(1.0) - Col("l_discount"))

  /** Q1: pricing summary — provenance is ~the whole lineitem table. */
  val q1: Op = Aggregate(Seq("l_returnflag", "l_linestatus"), Seq(
    Agg(FSum, Col("l_quantity"), "sum_qty"),
    Agg(FSum, Col("l_extendedprice"), "sum_base"),
    Agg(FCount, Col("l_orderkey"), "count_order")),
    Select(Col("l_shipdate") <= Lit(d("1998-09-01")), lineitem))

  /** Q3: top-10 unshipped orders by revenue. */
  val q3: Op = TopK(Seq(("revenue", false), ("l_orderkey", true)), 10,
    Aggregate(Seq("l_orderkey", "o_orderdate"), Seq(Agg(FSum, revenue, "revenue")),
      Select((Col("c_mktsegment") === Lit("BUILDING")) &&
             (Col("o_orderdate") < Lit(d("1995-03-15"))) &&
             (Col("l_shipdate") > Lit(d("1995-03-15"))),
        Join(Join(customer, orders, Seq(("c_custkey", "o_custkey"))),
             lineitem, Seq(("o_orderkey", "l_orderkey"))))))

  /** Q5: revenue per (customer = supplier) nation in a date window. */
  val q5: Op = TopK(Seq(("revenue", false), ("s_nationkey", true)), 25,
    Aggregate(Seq("s_nationkey"), Seq(Agg(FSum, revenue, "revenue")),
      Select((Col("o_orderdate") >= Lit(d("1994-01-01"))) &&
             (Col("o_orderdate") < Lit(d("1995-01-01"))),
        Join(Join(Join(customer, orders, Seq(("c_custkey", "o_custkey"))),
                  lineitem, Seq(("o_orderkey", "l_orderkey"))),
             supplier, Seq(("l_suppkey", "s_suppkey"), ("c_nationkey", "s_nationkey"))))))

  /** Q10: top-20 customers by returned-item revenue. */
  val q10: Op = TopK(Seq(("revenue", false), ("c_custkey", true)), 20,
    Aggregate(Seq("c_custkey", "c_mktsegment"), Seq(Agg(FSum, revenue, "revenue")),
      Select((Col("l_returnflag") === Lit("R")) &&
             (Col("o_orderdate") >= Lit(d("1993-10-01"))) &&
             (Col("o_orderdate") < Lit(d("1994-01-01"))),
        Join(Join(customer, orders, Seq(("c_custkey", "o_custkey"))),
             lineitem, Seq(("o_orderkey", "l_orderkey"))))))

  /** Q15: the supplier with the highest revenue in a quarter (top-1). */
  val q15: Op = TopK(Seq(("total_rev", false), ("s_suppkey", true)), 1,
    Join(supplier,
      Aggregate(Seq("l_suppkey"), Seq(Agg(FSum, revenue, "total_rev")),
        Select((Col("l_shipdate") >= Lit(d("1996-01-01"))) &&
               (Col("l_shipdate") < Lit(d("1996-04-01"))), lineitem)),
      Seq(("s_suppkey", "l_suppkey"))))

  /** Q17: revenue of small-quantity orders, vs the per-part average. */
  val q17: Op = Aggregate(Seq.empty, Seq(Agg(FSum, Col("l_extendedprice"), "total")),
    Select((Col("l_quantity") < Lit(0.2) * Col("avg_qty")) &&
           (Col("p_type") === Lit("PROMO")),
      Join(Join(part, lineitem, Seq(("p_partkey", "l_partkey"))),
           Aggregate(Seq("l2_partkey"), Seq(Agg(FAvg, Col("l2_quantity"), "avg_qty")),
             lineitem2),
           Seq(("l_partkey", "l2_partkey")))))

  /** Q18: customers with orders above a quantity threshold (HAVING), top-100. */
  val q18: Op = TopK(Seq(("o_totalprice", false), ("o_orderkey", true)), 100,
    Project(Seq((Col("o_orderkey"), "o_orderkey"), (Col("o_totalprice"), "o_totalprice"),
                (Col("o_orderdate"), "o_orderdate"), (Col("sum_qty"), "sum_qty")),
      Join(orders,
        Select(Col("sum_qty") > Lit(320.0),
          Aggregate(Seq("l_orderkey"), Seq(Agg(FSum, Col("l_quantity"), "sum_qty")),
            lineitem)),
        Seq(("o_orderkey", "l_orderkey")))))

  /** Q19: revenue from a disjunction of part/quantity conditions. */
  val q19: Op = Aggregate(Seq.empty, Seq(Agg(FSum, revenue, "revenue")),
    Select(((Col("p_size") <= Lit(5)) && (Col("l_quantity") <= Lit(5.0)) &&
            (Col("p_type") === Lit("SMALL"))) ||
           ((Col("p_size") >= Lit(40)) && (Col("l_quantity") >= Lit(47.0)) &&
            (Col("p_type") === Lit("LARGE"))),
      Join(part, lineitem, Seq(("p_partkey", "l_partkey")))))

  /** All queries with the sketch attribute per table the paper would pick
    * (PK where safe, group-by/join-equal attribute otherwise).
    */
  final case class Workload(name: String, q: Op, sketchAttrs: Map[String, String])

  val queries: Seq[Workload] = Seq(
    Workload("Q1", q1, Map("lineitem" -> "l_returnflag")),
    Workload("Q3", q3, Map("lineitem" -> "l_orderkey", "orders" -> "o_orderkey")),
    Workload("Q5", q5, Map("supplier" -> "s_nationkey", "customer" -> "c_nationkey")),
    Workload("Q10", q10, Map("customer" -> "c_custkey", "orders" -> "o_custkey")),
    Workload("Q15", q15, Map("lineitem" -> "l_suppkey", "supplier" -> "s_suppkey")),
    Workload("Q17", q17, Map("part" -> "p_partkey", "lineitem" -> "l_partkey")),
    Workload("Q18", q18, Map("lineitem" -> "l_orderkey", "orders" -> "o_orderkey")),
    Workload("Q19", q19, Map("lineitem" -> "l_partkey", "part" -> "p_partkey")),
  )

  /** The templates of the tpch-topk benchmark workload. */
  val topKQueries: Seq[Workload] = queries.filter(w => Set("Q1", "Q3", "Q5", "Q10", "Q15", "Q18")(w.name))

  /** The candidate sketch attributes per table that the tpch-topk
    * benchmark workload offers its manager, tables in the same order (the
    * order of the safety search's combinations).
    */
  val topKCandidates: Map[String, Seq[String]] = Map(
    "lineitem" -> Seq("l_orderkey", "l_suppkey", "l_returnflag"),
    "orders"   -> Seq("o_orderkey", "o_custkey"),
    "customer" -> Seq("c_custkey", "c_nationkey"),
    "supplier" -> Seq("s_suppkey", "s_nationkey"))

  /** `topKCandidates` of the tables `q` reads, as one-fragment partitions:
    * the safety check looks only at the attribute.
    */
  def topKCandidatesFor(q: Op): Map[String, Seq[RangePartition]] = {
    val types = Algebra.baseTypes(q)
    topKCandidates.collect { case (t, as) if Algebra.tables(q).exists(_.name == t) =>
      t -> as.map(a => RangePartition(t, a, types(a), Vector.empty))
    }
  }

  /** Generate the catalog at a scale factor (lineitem2 = aliased lineitem). */
  def catalog(spark: SparkSession, sf: Double): Map[String, DataFrame] = {
    val li = SynthData.lineitem(spark, sf)
    Map(
      "lineitem" -> li,
      "lineitem2" -> li.selectExpr("l_partkey as l2_partkey", "l_quantity as l2_quantity"),
      "orders"   -> SynthData.orders(spark, sf),
      "customer" -> SynthData.customer(spark, sf),
      "part"     -> SynthData.part(spark, sf),
      "supplier" -> SynthData.supplier(spark, sf),
    )
  }

  /** Column min/max statistics for the safety checker's pred(Q). */
  def stats(sf: Double): Stats = Stats(Map(
    "l_quantity"      -> (1.0, 51.0),
    "l_extendedprice" -> (900.0, 90900.0),
    "l_discount"      -> (0.0, 0.10),
    "o_totalprice"    -> (1000.0, 501000.0),
    "p_size"          -> (1, 51),
    "c_acctbal"       -> (-1000.0, 9000.0),
  ))
}
