package repro.algebra

import repro.{Fixtures, Oracle, SparkSpec}
import Fixtures._

/** IR structural helpers. */
class AlgebraSpec extends org.scalatest.funsuite.AnyFunSuite {
  test("columns of each operator") {
    assert(cities.columns == Seq("popden", "city", "state"))
    assert(q1.columns == Seq("city", "popden"))
    assert(q2.columns == Seq("state", "avgden"))
    val j = Join(cities, TableRef("s", Seq("st" -> TString, "r" -> TString)), Seq(("state", "st")))
    assert(j.columns == Seq("popden", "city", "state", "st", "r"))
  }
  test("tables collects base relations") {
    assert(Algebra.tables(q2).map(_.name) == Seq("cities"))
    val j = Join(cities, TableRef("s", Seq("st" -> TString)), Seq(("state", "st")))
    assert(Algebra.tables(j).map(_.name) == Seq("cities", "s"))
  }
  test("transformTables rewrites scans") {
    val rewritten = Algebra.transformTables(q2)(t => Select(Col("state") === Lit("CA"), t))
    var found = false
    def walk(op: Op): Unit = op match {
      case Select(Cmp("=", Col("state"), Lit("CA")), _: TableRef) => found = true
      case o => o.children.foreach(walk)
    }
    walk(rewritten)
    assert(found)
  }
  test("bind substitutes parameters") {
    val t = Select(Col("popden") > Param("p1"), cities)
    val q = Algebra.bind(t, Map("p1" -> 3000L))
    assert(q == Select(Col("popden") > Lit(3000L), cities))
  }
  test("bind fails on missing binding; compile fails on unbound param") {
    val t = Select(Col("popden") > Param("p1"), cities)
    intercept[RuntimeException](Algebra.bind(t, Map.empty))
    intercept[RuntimeException](ToSpark.pred(t.pred))
  }
  test("baseTypes merges schemas") {
    val types = Algebra.baseTypes(q2)
    assert(types("popden") == TLong && types("state") == TString)
  }
}

/** End-to-end: ToSpark result == DuckDB result (via ToSql) per operator. */
class CompilerSpec extends SparkSpec {

  private lazy val citiesDf = sparkDf(spark, citiesSchema, citiesRows)
  private lazy val catalog  = Map("cities" -> citiesDf)

  private def check(q: Op, extra: (String, org.apache.spark.sql.DataFrame)*): Unit = {
    val cat = catalog ++ extra.toMap
    Oracle.assertEquivalent(ToSpark.compile(q, cat), ToSql.compile(q),
      (("cities" -> citiesDf) +: extra).distinct: _*)
  }

  test("table scan") { check(cities) }
  test("selection with equality (Q1 inner)") {
    check(Select(Col("state") === Lit("CA"), cities))
  }
  test("projection with arithmetic") {
    check(Project(Seq((Col("popden") * Lit(2L) + Lit(1L), "x"), (Col("city"), "city")), cities))
  }
  test("Q1 of the running example") { check(q1) }
  test("aggregation with group-by (avg)") {
    check(Aggregate(Seq("state"), Seq(Agg(FAvg, Col("popden"), "avgden")), cities))
  }
  test("aggregation sum/count/min/max") {
    check(Aggregate(Seq("state"), Seq(
      Agg(FSum, Col("popden"), "s"), Agg(FCount, Col("popden"), "c"),
      Agg(FMin, Col("popden"), "mn"), Agg(FMax, Col("popden"), "mx")), cities))
  }
  test("global aggregation (empty group-by)") {
    check(Aggregate(Seq.empty, Seq(Agg(FSum, Col("popden"), "total")), cities))
  }
  test("Q2 of the running example (top-1 by avg)") { check(q2) }
  test("top-k with tiebreaker ordering") {
    check(TopK(Seq(("popden", false), ("city", true)), 3, cities))
  }
  test("having-style selection over aggregate") { check(qPopState(10000L, ">")) }
  test("join") {
    val info = TableRef("info", Seq("st2" -> TString, "coast" -> TString))
    val infoDf = sparkDf(spark, info.schema,
      Seq(Seq("CA", "west"), Seq("NY", "east"), Seq("TX", "gulf"), Seq("AK", "north")))
    check(Join(cities, info, Seq(("state", "st2"))), "info" -> infoDf)
  }
  test("multi-column join") {
    val info = TableRef("info2", Seq("st2" -> TString, "pd2" -> TLong))
    val infoDf = sparkDf(spark, info.schema, Seq(Seq("CA", 6000L), Seq("NY", 2000L)))
    check(Join(cities, info, Seq(("state", "st2"), ("popden", "pd2"))), "info2" -> infoDf)
  }
  test("union all") {
    val more = TableRef("more", citiesSchema)
    val moreDf = sparkDf(spark, citiesSchema, Seq(Seq(1234L, "Reno", "NV")))
    check(UnionAll(cities, more), "more" -> moreDf)
  }
  test("distinct") {
    check(Distinct(Project(Seq((Col("state"), "state")), cities)))
  }
  test("nested aggregation (C-Q2 shape)") {
    val inner = Aggregate(Seq("state"), Seq(Agg(FCount, Col("city"), "cnt")), cities)
    check(Aggregate(Seq.empty, Seq(Agg(FCount, Col("state"), "nstates")),
      Select(Col("cnt") >= Lit(2L), inner)))
  }
  test("parameterized instance compiles after bind") {
    val t = Select(Col("popden") > Param("p1"), cities)
    check(Algebra.bind(t, Map("p1" -> 3000L)))
  }
}

/** Lineage interpreter vs Spark, plus hand-checked provenance. */
class LineageSpec extends SparkSpec {

  private lazy val db = citiesDb
  private lazy val citiesDf = sparkDf(spark, citiesSchema, citiesRows)
  private lazy val catalog = Map("cities" -> citiesDf)

  private def sparkRows(q: Op): Seq[Map[String, Any]] = {
    val df = ToSpark.compile(q, catalog)
    val cols = df.columns
    df.collect().toSeq.map(r => cols.zipWithIndex.map { case (c, i) => c -> r.get(i) }.toMap)
  }

  test("interpreter matches Spark on Q1") {
    assert(Lineage.sameResult(Lineage.result(q1, db), sparkRows(q1)))
  }
  test("interpreter matches Spark on Q2") {
    assert(Lineage.sameResult(Lineage.result(q2, db), sparkRows(q2)))
  }
  test("interpreter matches Spark on group-by aggregates") {
    val q = Aggregate(Seq("state"), Seq(
      Agg(FSum, Col("popden"), "s"), Agg(FCount, Col("popden"), "c"),
      Agg(FMin, Col("popden"), "mn"), Agg(FMax, Col("popden"), "mx")), cities)
    assert(Lineage.sameResult(Lineage.result(q, db), sparkRows(q)))
  }
  test("interpreter matches Spark on having query") {
    val q = qPopState(10000L, ">")
    assert(Lineage.sameResult(Lineage.result(q, db), sparkRows(q)))
  }

  test("Ex. 3: provenance of Q2 is {t2, t3}") {
    // t2, t3 are 0-based rows 1 and 2 of cities.
    assert(Lineage.provenance(q2, db) == Set("cities" -> 1L, "cities" -> 2L))
  }
  test("provenance of Q1 is the CA rows") {
    assert(Lineage.provenance(q1, db) == Set("cities" -> 1L, "cities" -> 2L))
  }
  test("provenance of selective having query") {
    // only CA has sum(popden) = 11000 > 10000
    assert(Lineage.provenance(qPopState(10000L, ">"), db) ==
      Set("cities" -> 1L, "cities" -> 2L))
  }
  test("min/max lineage keeps only extreme-achieving rows") {
    val q = Aggregate(Seq.empty, Seq(Agg(FMax, Col("popden"), "m")), cities)
    assert(Lineage.provenance(q, db) == Set("cities" -> 3L)) // t4 New York 7000
  }
  test("join lineage unions both sides") {
    val info = TableRef("info", Seq("st2" -> TString, "coast" -> TString))
    val dbj = db + ("info" -> lineageTable(info.schema, Seq(Seq("CA", "west"))))
    val q = Join(cities, info, Seq(("state", "st2")))
    assert(Lineage.provenance(q, dbj) ==
      Set("cities" -> 1L, "cities" -> 2L, "info" -> 0L))
  }
  test("distinct lineage unions duplicates") {
    val q = Distinct(Project(Seq((Col("state"), "state")), cities))
    val provOfCA = Lineage.run(q, db).find(_.values("state") == "CA").get.prov
    assert(provOfCA == Set("cities" -> 1L, "cities" -> 2L))
  }
  test("provenance is sufficient: Q over provenance rows = Q over D (Q2)") {
    val prov = Lineage.provenance(q2, db)
    val provDb: Lineage.Db = Map("cities" ->
      db("cities").zipWithIndex.collect { case (r, i) if prov(("cities", i.toLong)) => r })
    assert(Lineage.sameResult(Lineage.result(q2, provDb), Lineage.result(q2, db)))
  }
  test("Ex. 5: evaluating Q2 over popden fragment g2 gives the WRONG result") {
    // g2 = {t1,t2,t3,t4}: avg for NY is then 7000 > CA's 5500 — unsafe sketch.
    val g2: Lineage.Db = Map("cities" -> db("cities").take(4))
    val r = Lineage.result(q2, g2)
    assert(r.head("state") == "NY")
    assert(!Lineage.sameResult(r, Lineage.result(q2, db)))
  }
}
