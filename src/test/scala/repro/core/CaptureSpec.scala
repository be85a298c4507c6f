package repro.core

import repro.{Fixtures, SparkSpec}
import repro.algebra._
import Fixtures._
import Capture._
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.count
import org.apache.spark.sql.execution.aggregate.{HashAggregateExec, ObjectHashAggregateExec, SortAggregateExec}
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

/** Sketch capture (Sec. 7) against the Lineage interpreter ground truth. */
class CaptureSpec extends SparkSpec {

  private lazy val citiesDf = sparkDf(spark, citiesSchema, citiesRows)
  private lazy val catalog  = Map("cities" -> citiesDf)
  private lazy val db       = citiesDb

  private val fState  = RangePartition("cities", "state", TString, stateBounds.toIndexedSeq)
  private val fPopden = RangePartition("cities", "popden", TLong, popdenBounds.toIndexedSeq)

  private def multiset(df: DataFrame): Seq[String] = df.collect().map(_.toString).sorted.toSeq

  /** Capture `q` over `cat`, checking that the answer the instrumented
    * execution returns equals plain execution as a multiset of rows.
    */
  private def sketchesOf(q: Op, parts: Seq[RangePartition],
                         cat: Map[String, DataFrame] = catalog): Map[String, CapturedSketch] = {
    val c = Capture.run(q, parts, cat)
    assert(multiset(c.answer) == multiset(ToSpark.compile(q, cat)), s"answer of $q")
    assert(c.rows == c.answer.collect().length, s"row count of $q")
    c.sketches
  }

  private def expectedFrags(q: Op, p: RangePartition): Set[Int] = {
    val prov = Lineage.provenance(q, db).filter(_._1 == p.table).map(_._2)
    val rows = db(p.table)
    prov.map(i => p.fragmentOf(rows(i.toInt)(p.attr)))
  }

  test("Ex. 3: sketch of Q2 on F_state is {f1}") {
    val s = sketchesOf(q2, Seq(fState))("cities")
    assert(s.fragments == Seq(0))
  }
  test("sketch of Q2 on F_popden is {g2}") {
    val s = sketchesOf(q2, Seq(fPopden))("cities")
    assert(s.fragments == Seq(1))
  }
  test("sketch of Q1 (selection only) on F_state is {f1}") {
    val s = sketchesOf(q1, Seq(fState))("cities")
    assert(s.fragments == Seq(0))
  }
  test("sketch of the having query matches lineage on both partitions") {
    val q = qPopState(10000L, ">")
    for (p <- Seq(fState, fPopden)) {
      val s = sketchesOf(q, Seq(p))(p.table)
      assert(s.fragments.toSet == expectedFrags(q, p), s"partition=${p.attr}")
    }
  }
  test("T7 merge kernels and capture agree on a global count") {
    val q = Aggregate(Seq.empty, Seq(Agg(FCount, Col("city"), "c")), cities)
    val expected = sketchesOf(q, Seq(fState))("cities").bits
    assert(expected.fragments == Seq(0, 2, 3)) // every row: CA/AK, NY, TX
    for ((name, merge) <- repro.bench.CaptureOptExperiments.merges(fState)) {
      val words = repro.bench.CaptureOptExperiments.withFragment(citiesDf, fState).agg(count("city"), merge)
        .head().getAs[scala.collection.Seq[Long]](1).toArray
      assert(BitSketch.fromWords(fState.nFragments, words) == expected, s"merge=$name")
    }
  }
  test("global min/max with precise refinement keeps only extreme rows") {
    val q = Aggregate(Seq.empty, Seq(Agg(FMax, Col("popden"), "m")), cities)
    val s = sketchesOf(q, Seq(fState))("cities")
    assert(s.fragments == Seq(2)) // t4 New York (7000) is in f3
    assert(s.fragments.toSet == expectedFrags(q, fState))
  }
  test("grouped min with precise refinement") {
    val q = Aggregate(Seq("state"), Seq(Agg(FMin, Col("popden"), "m")), cities)
    val s = sketchesOf(q, Seq(fPopden))("cities")
    assert(s.fragments.toSet == expectedFrags(q, fPopden))
  }
  test("top-k keeps only contributing groups (Q2 variants)") {
    // top-1 by avgden asc → TX group (3100): popden 3700,2500 → g1 only
    val q = TopK(Seq(("avgden", true)), 1,
      Aggregate(Seq("state"), Seq(Agg(FAvg, Col("popden"), "avgden")), cities))
    val s = sketchesOf(q, Seq(fPopden))("cities")
    assert(s.fragments.toSet == expectedFrags(q, fPopden))
  }
  test("join propagates annotations from both tables") {
    val info = TableRef("info", Seq("st2" -> TString, "pop2" -> TLong))
    val infoRows = Seq(Seq("CA", 1L), Seq("NY", 2L), Seq("TX", 3L))
    val infoDf = sparkDf(spark, info.schema, infoRows)
    val fInfo = RangePartition("info", "pop2", TLong, Vector(1L, 2L))
    val q = Aggregate(Seq("state"), Seq(Agg(FSum, Col("popden"), "s")),
      Select(Col("pop2") >= Lit(2L), Join(cities, info, Seq(("state", "st2")))))
    val cat2 = catalog + ("info" -> infoDf)
    val db2 = db + ("info" -> lineageTable(info.schema, infoRows))
    val sketches = sketchesOf(q, Seq(fState, fInfo), cat2)
    val provC = Lineage.provenance(q, db2).filter(_._1 == "cities").map(_._2)
      .map(i => fState.fragmentOf(db2("cities")(i.toInt)("state")))
    val provI = Lineage.provenance(q, db2).filter(_._1 == "info").map(_._2)
      .map(i => fInfo.fragmentOf(db2("info")(i.toInt)("pop2")))
    assert(sketches("cities").fragments.toSet == provC)
    assert(sketches("info").fragments.toSet == provI)
  }
  test("distinct merges duplicate annotations") {
    val q = Distinct(Project(Seq((Col("state"), "state")), cities))
    val s = sketchesOf(q, Seq(fPopden))("cities")
    assert(s.fragments.toSet == expectedFrags(q, fPopden))
  }
  test("union all requires matching annotations and unions them") {
    val q = Aggregate(Seq.empty, Seq(Agg(FCount, Col("state"), "c")),
      UnionAll(Select(Col("state") === Lit("CA"), cities),
               Select(Col("state") === Lit("TX"), cities)))
    // cities accessed twice — the paper's single-access assumption; our
    // implementation still produces a covering sketch for the union.
    val s = sketchesOf(q, Seq(fState))("cities")
    assert(s.fragments == Seq(0, 3))
  }
  test("empty query result yields the empty sketch") {
    val q = Select(Col("state") === Lit("ZZ"), cities)
    val s = sketchesOf(q, Seq(fState))("cities")
    assert(s.bits.isEmpty)
  }
  test("capture without any matching partition is rejected") {
    intercept[IllegalArgumentException](capture(q2, Seq.empty, catalog))
  }
  test("projection keeps annotations (arith expressions)") {
    val q = Aggregate(Seq.empty, Seq(Agg(FSum, Col("x"), "sx")),
      Select(Col("x") > Lit(5000L),
        Project(Seq(((Col("popden") + Lit(100L)), "x"), (Col("state"), "state")), cities)))
    val s = sketchesOf(q, Seq(fPopden))("cities")
    assert(s.fragments.toSet == expectedFrags(q, fPopden))
  }

  // r3's min/max join-back over NULLs in non-sketch attributes: `g` and `v`
  // are nullable, the sketch attribute `k` is not. Fragments of k under
  // bounds (2, 4, 6): k=1 → 0, k=3 → 1, k=5,6 → 2, k=7,8 → 3.
  private lazy val nullsCatalog = {
    val rows = Seq[Seq[Any]](Seq(1L, "a", 10L), Seq(3L, "a", 20L), Seq(5L, null, 5L),
      Seq(6L, null, 9L), Seq(7L, "b", null), Seq(8L, "b", null))
    val st = StructType(Seq(StructField("k", LongType, nullable = false),
      StructField("g", StringType), StructField("v", LongType)))
    Map("n" -> spark.createDataFrame(java.util.Arrays.asList(rows.map(Row.fromSeq): _*), st))
  }
  private val nulls = TableRef("n", Seq("k" -> TLong, "g" -> TString, "v" -> TLong))
  private val fK = RangePartition("n", "k", TLong, Vector(2L, 4L, 6L))

  /** The captured answer (checked against plain execution) and sketch. */
  private def captureNulls(q: Op): (Seq[String], CapturedSketch) = {
    val s = sketchesOf(q, Seq(fK), nullsCatalog)("n")
    (multiset(ToSpark.compile(q, nullsCatalog)), s)
  }

  test("precise max keeps the group whose key is NULL") {
    val (rows, s) = captureNulls(
      Aggregate(Seq("g"), Seq(Agg(FMax, Col("v"), "m")), Select(Col("k") <= Lit(6L), nulls)))
    assert(rows == Seq("[a,20]", "[null,9]"))
    assert(s.fragments == Seq(1, 2)) // a: max at k=3; NULL group: max at k=6
  }
  test("precise min keeps a group whose inputs are all NULL") {
    val (rows, s) = captureNulls(
      Aggregate(Seq("g"), Seq(Agg(FMin, Col("v"), "m")), Select(Col("k") > Lit(6L), nulls)))
    assert(rows == Seq("[b,null]"))
    assert(s.fragments == Seq(3)) // every row of the group attains the NULL extreme
  }
  test("precise global min over no rows returns its NULL row and the empty sketch") {
    val (rows, s) = captureNulls(
      Aggregate(Seq.empty, Seq(Agg(FMin, Col("v"), "m")), Select(Col("k") > Lit(100L), nulls)))
    assert(rows == Seq("[null]"))
    assert(s.bits.isEmpty)
  }

  // --- both merge kernels, on either side of `Capture.MaxWordColumns` ----
  //
  // Tiny tables with NULLs. `w.k` is the sketch attribute of w (one row has
  // k NULL), `u.uk` that of u; w joins u on g = ug. Group "e" has only NULL
  // v, and some rows have a NULL group key. Partitions of 64, 512 and 520
  // fragments are 1, 8 and 9 words: the two widths within the cutoff use
  // the `bit_or` word columns, 520 uses the Aggregators.
  private val kernelWidths = Seq(64, 512, 520)

  private val w = TableRef("w", Seq("k" -> TLong, "g" -> TString, "v" -> TLong, "d" -> TDouble))
  private val u = TableRef("u", Seq("uk" -> TLong, "ug" -> TString, "uv" -> TLong))
  private val wRows: Seq[Seq[Any]] = (0 until 48).map { i =>
    Seq(i * 117L, if (i % 11 == 5) null else Seq("a", "b", "c", "e")(i % 4),
      if (i % 4 == 3 || i % 13 == 0) null else (i % 7).toLong, i * 0.37 + 0.01)
  } :+ Seq(null, "a", 3L, 1.5)
  private val uRows: Seq[Seq[Any]] = (0 until 20).map { i =>
    Seq(i * 301L, Seq("a", "b", "e", "x")(i % 4), (i % 5).toLong)
  }

  private lazy val kernelCatalog = Map("w" -> sparkDf(spark, w.schema, wRows, nullable = true),
    "u" -> sparkDf(spark, u.schema, uRows, nullable = true))
  private lazy val kernelDb = Map("w" -> lineageTable(w.schema, wRows), "u" -> lineageTable(u.schema, uRows))

  /** `n` equal-width fragments of `attr` over [0, 6000). */
  private def widthPart(t: String, attr: String, n: Int): RangePartition =
    RangePartition(t, attr, TLong, (1 until n).map(j => j * 6000L / n).toVector)

  /** Rows equal as multisets, doubles within a 1e-9 relative tolerance. */
  private def sameRows(a: Seq[Row], b: Seq[Row]): Boolean = {
    def same(x: Any, y: Any): Boolean = (x, y) match {
      case (p: Double, q: Double) => p == q || math.abs(p - q) <= 1e-9 * math.max(math.abs(p), math.abs(q))
      case _                      => x == y
    }
    def sameRow(r: Row, o: Row) = r.length == o.length && (0 until r.length).forall(i => same(r.get(i), o.get(i)))
    a.size == b.size && a.foldLeft(Option(b)) { (left, r) =>
      left.flatMap { l => val i = l.indexWhere(sameRow(r, _)); if (i < 0) None else Some(l.patch(i, Nil, 1)) }
    }.isDefined
  }

  /** Capture `q` over the kernel tables: its answer equals plain execution,
    * and each sketch is the fragments of the Lineage provenance of its
    * table (a row with a NULL sketch attribute lies in no fragment).
    */
  private def checkKernels(q: Op, parts: Seq[RangePartition]): Map[String, CapturedSketch] = {
    val c = Capture.run(q, parts, kernelCatalog)
    val plain = ToSpark.compile(q, kernelCatalog).collect().toSeq
    assert(sameRows(c.answer.collect().toSeq, plain), s"answer of $q at ${parts.map(_.nFragments)}")
    val prov = Lineage.provenance(q, kernelDb)
    for (p <- parts) {
      val values = prov.collect { case (t, i) if t == p.table => kernelDb(t)(i.toInt)(p.attr) }
      val expected = values.filter(_ != null).map(p.fragmentOf)
      assert(c.sketches(p.table).fragments.toSet == expected, s"${p.table} at ${p.nFragments} fragments")
    }
    c.sketches
  }

  private def atEachWidth(q: Op): Unit =
    for (n <- kernelWidths) checkKernels(q, Seq(widthPart("w", "k", n)))

  test("kernels at 1, 8 and 9 words: the first aggregate") {
    atEachWidth(Select(Col("c") >= Lit(3L),
      Aggregate(Seq("g"), Seq(Agg(FCount, Col("v"), "c"), Agg(FSum, Col("d"), "sd"), Agg(FAvg, Col("d"), "ad")),
        Select(Col("d") > Lit(2.0), w))))
  }
  test("kernels at 1, 8 and 9 words: an aggregate over an aggregate") {
    atEachWidth(Aggregate(Seq.empty, Seq(Agg(FCount, Col("g"), "n"), Agg(FSum, Col("sd"), "ssd")),
      Select(Col("c") >= Lit(3L),
        Aggregate(Seq("g"), Seq(Agg(FCount, Col("v"), "c"), Agg(FSum, Col("d"), "sd")), w))))
  }
  test("kernels at 1, 8 and 9 words: distinct") {
    atEachWidth(Distinct(Project(Seq((Col("g"), "g")), Select(Col("v") < Lit(4L), w))))
  }
  test("kernels at 1, 8 and 9 words: union all under an aggregate") {
    atEachWidth(Aggregate(Seq("g"), Seq(Agg(FCount, Col("v"), "c")),
      UnionAll(Select(Col("k") <= Lit(2000L), w), Select(Col("v") >= Lit(5L), w))))
  }
  test("kernels at 1, 8 and 9 words: a join of tables on opposite sides of the cutoff") {
    val q = Aggregate(Seq("g"), Seq(Agg(FSum, Col("uv"), "s"), Agg(FCount, Col("v"), "c")),
      Select(Col("uv") >= Lit(1L), Join(w, u, Seq(("g", "ug")))))
    for ((nw, nu) <- Seq((512, 520), (520, 512), (64, 520))) {
      val s = checkKernels(q, Seq(widthPart("w", "k", nw), widthPart("u", "uk", nu)))
      assert(s("w").partition.nFragments == nw && s("u").partition.nFragments == nu)
    }
  }
  test("kernels at 1, 8 and 9 words: a NULL sketch attribute adds no fragment") {
    for (n <- kernelWidths) {
      val sel = checkKernels(Select(Col("v") === Lit(3L), w), Seq(widthPart("w", "k", n)))("w")
      val agg = checkKernels(Aggregate(Seq("g"), Seq(Agg(FSum, Col("d"), "sd")),
        Select(Col("g") === Lit("a"), w)), Seq(widthPart("w", "k", n)))("w")
      // the NULL-k row is in both answers, and both sketches are non-empty
      assert(!sel.bits.isEmpty && !agg.bits.isEmpty, s"$n fragments")
    }
  }
  test("kernels at 1, 8 and 9 words: precise min/max over NULLs") {
    // groups: a NULL key, all-NULL "e"; then a global min over no rows
    atEachWidth(Aggregate(Seq("g"), Seq(Agg(FMax, Col("v"), "m")), w))
    atEachWidth(Aggregate(Seq("g"), Seq(Agg(FMin, Col("v"), "m")), Select(Col("k") > Lit(3000L), w)))
    for (n <- kernelWidths) {
      val q = Aggregate(Seq.empty, Seq(Agg(FMin, Col("v"), "m")), Select(Col("k") > Lit(100000L), w))
      assert(checkKernels(q, Seq(widthPart("w", "k", n)))("w").bits.isEmpty)
    }
  }
  test("the 8-word merge is a HashAggregate; the 9-word merge uses the Aggregators") {
    val q = Aggregate(Seq.empty, Seq(Agg(FCount, Col("g"), "n"), Agg(FSum, Col("sd"), "ssd")),
      Aggregate(Seq("g"), Seq(Agg(FCount, Col("v"), "c"), Agg(FSum, Col("d"), "sd")), w))
    def aggregates(n: Int): Seq[String] = {
      val (df, _) = Capture.instrumented(q, Map("w" -> widthPart("w", "k", n)), kernelCatalog)
      df.collect()
      executedOperators(df).collect {
        case h: HashAggregateExec =>
          assert(h.supportCodegen, s"$n fragments: $h")
          "Hash"
        case _: ObjectHashAggregateExec => "ObjectHash"
        case _: SortAggregateExec       => "Sort"
      }
    }
    val eight = aggregates(512)
    assert(eight.nonEmpty && eight.forall(_ == "Hash"), eight)
    assert(aggregates(520).contains("ObjectHash"))
  }
}

/** Q[P] instrumentation and runtime behaviour (Sec. 8). */
class UseSpec extends SparkSpec {

  private lazy val citiesDf = sparkDf(spark, citiesSchema, citiesRows)
  private lazy val catalog  = Map("cities" -> citiesDf)
  private lazy val db       = citiesDb

  private val fState  = RangePartition("cities", "state", TString, stateBounds.toIndexedSeq)
  private val fPopden = RangePartition("cities", "popden", TLong, popdenBounds.toIndexedSeq)

  test("instrument wraps the table access in the decoded selection") {
    val s = CapturedSketch(fState, BitSketch.fromFragments(4, Seq(0)))
    Use.instrument(q2, Map("cities" -> s)) match {
      case TopK(_, _, Aggregate(_, _, Select(p, _: TableRef))) =>
        assert(p == (Col("state") <= Lit("DE~")))
      case other => fail(s"unexpected shape $other")
    }
  }
  test("Ex. 4: Q2[P_state] returns the original result") {
    val sketches = Capture.capture(q2, Seq(fState), catalog)
    val inst = Use.instrument(q2, sketches)
    assert(Lineage.sameResult(Lineage.result(inst, db), Lineage.result(q2, db)))
    // and on Spark against the DuckDB oracle
    repro.Oracle.assertEquivalent(
      ToSpark.compile(inst, catalog), ToSql.compile(inst), "cities" -> citiesDf)
  }
  test("Ex. 5: the accurate popden sketch is UNSAFE for Q2") {
    val sketches = Capture.capture(q2, Seq(fPopden), catalog)
    assert(sketches("cities").fragments == Seq(1)) // accurate: {g2}
    val r = Lineage.result(Use.instrument(q2, sketches), db)
    assert(r.head("state") == "NY") // wrong answer, as in the paper
    assert(!Lineage.sameResult(r, Lineage.result(q2, db)))
  }
  test("OR-of-ranges decode and binary-search membership agree") {
    val s = Capture.capture(q2, Seq(fState), catalog)("cities")
    val a = citiesDf.filter(s.toColumn).collect().map(_.toString).sorted.toSeq
    val b = citiesDf.filter(s.membership).collect().map(_.toString).sorted.toSeq
    assert(a == b && a.size == 3) // the three f1 rows
  }
  test("sketch of all fragments decodes to PTrue (no-op filter)") {
    val s = CapturedSketch(fState, BitSketch.full(4))
    assert(s.toPred == PTrue)
    assert(Lineage.result(Use.instrument(q2, Map("cities" -> s)), db).size == 1)
  }
  test("union/covers on captured sketches (Lemma 5)") {
    val a = CapturedSketch(fState, BitSketch.fromFragments(4, Seq(0)))
    val b = CapturedSketch(fState, BitSketch.fromFragments(4, Seq(2)))
    val u = a.union(b)
    assert(u.fragments == Seq(0, 2) && u.covers(a) && u.covers(b) && !a.covers(u))
  }
}
