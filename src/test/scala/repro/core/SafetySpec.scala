package repro.core

import repro.{Fixtures, SparkSpec}
import repro.algebra._
import repro.workloads.TpchLite
import Fixtures._
import SafetyChecker.{isSafe, Stats}

/** Safety checking (Sec. 5, Fig. 3) on the paper's examples and beyond. */
class SafetySpec extends SparkSpec {

  private val stats = Stats(Map(
    "popden" -> (2000L, 7000L),
  ))
  private val fState  = RangePartition("cities", "state", TString, stateBounds.toIndexedSeq)
  private val fPopden = RangePartition("cities", "popden", TLong, popdenBounds.toIndexedSeq)
  private lazy val citiesDf = sparkDf(spark, citiesSchema, citiesRows)
  private lazy val catalog  = Map("cities" -> citiesDf)
  private lazy val db       = citiesDb

  test("Q1 (SPJ only): every attribute is safe") {
    assert(isSafe(q1, Set("state"), stats))
    assert(isSafe(q1, Set("popden"), stats))
    assert(isSafe(q1, Set("city"), stats))
  }
  test("Q2 (top-1 by avg): group-by attribute state is safe") {
    assert(isSafe(q2, Set("state"), stats))
  }
  test("Q2: popden is (possibly) unsafe — the paper's Ex. 5") {
    assert(!isSafe(q2, Set("popden"), stats))
  }
  test("Ex. 6: totden < c selection makes popden unsafe") {
    assert(!isSafe(qPopState(7000L, "<"), Set("popden"), stats))
  }
  test("sum-HAVING with lower bound: popden safe given positivity stats") {
    assert(isSafe(qPopState(10000L, ">"), Set("popden"), stats))
  }
  test("sum-HAVING positivity requires statistics (sound incompleteness)") {
    assert(!isSafe(qPopState(10000L, ">"), Set("popden"), Stats()))
  }
  test("group-by attribute is always safe for sum-HAVING") {
    assert(isSafe(qPopState(7000L, "<"), Set("state"), stats))
    assert(isSafe(qPopState(10000L, ">"), Set("state"), stats))
  }
  test("count-HAVING with lower bound: non-group attribute safe") {
    val q = Select(Col("cnt") > Lit(1L),
      Aggregate(Seq("state"), Seq(Agg(FCount, Col("city"), "cnt")), cities))
    assert(isSafe(q, Set("popden"), stats))
    assert(isSafe(q, Set("state"), stats))
  }
  test("count-HAVING with upper bound: non-group attribute unsafe") {
    val q = Select(Col("cnt") < Lit(3L),
      Aggregate(Seq("state"), Seq(Agg(FCount, Col("city"), "cnt")), cities))
    assert(!isSafe(q, Set("popden"), stats))
    assert(isSafe(q, Set("state"), stats)) // groups align with fragments
  }
  test("top-k by monotone sum: non-group attribute unsafe (order not preserved)") {
    val q = TopK(Seq(("totden", false)), 1,
      Aggregate(Seq("state"), Seq(Agg(FSum, Col("popden"), "totden")), cities))
    assert(!isSafe(q, Set("popden"), stats))
    assert(isSafe(q, Set("state"), stats))
  }
  test("distinct projection: any attribute safe") {
    val q = Distinct(Project(Seq((Col("state"), "state")), cities))
    assert(isSafe(q, Set("popden"), stats))
    assert(isSafe(q, Set("state"), stats))
  }
  test("projection rename keeps group-by safety through expr()") {
    val q = Select(Col("t") > Lit(10000L),
      Aggregate(Seq("st"), Seq(Agg(FSum, Col("pd"), "t")),
        Project(Seq((Col("state"), "st"), (Col("popden"), "pd")), cities)))
    assert(isSafe(q, Set("state"), stats))
  }
  test("join: PK-style attributes with equality joins stay safe") {
    val info = TableRef("info", Seq("st2" -> TString, "pop2" -> TLong))
    val q = Select(Col("cnt") > Lit(0L),
      Aggregate(Seq("state"), Seq(Agg(FCount, Col("city"), "cnt")),
        Join(cities, info, Seq(("state", "st2")))))
    assert(isSafe(q, Set("state"), stats))
    assert(isSafe(q, Set("st2"), stats))  // other side of the equi-join
    assert(isSafe(q, Set("popden"), stats)) // count lower bound
  }
  test("union: equality survives only if certain on both branches") {
    val u = UnionAll(Select(Col("state") === Lit("CA"), cities),
                     Select(Col("state") === Lit("TX"), cities))
    val q = Select(Col("c") > Lit(0L),
      Aggregate(Seq("state"), Seq(Agg(FCount, Col("city"), "c")), u))
    assert(isSafe(q, Set("state"), stats))
  }
  test("avg aggregate: non-group attribute never provably safe") {
    val q = Select(Col("a") > Lit(0L),
      Aggregate(Seq("state"), Seq(Agg(FAvg, Col("popden"), "a")), cities))
    assert(!isSafe(q, Set("popden"), stats))
    assert(isSafe(q, Set("state"), stats))
  }
  test("Lemma 4: safety identical across instances of a template") {
    val t = Select(Col("totden") > Param("p"),
      Aggregate(Seq("state"), Seq(Agg(FSum, Col("popden"), "totden")), cities))
    for (v <- Seq(0L, 5000L, 100000L)) {
      val q = Algebra.bind(t, Map("p" -> v))
      assert(isSafe(q, Set("popden"), stats))
      assert(isSafe(q, Set("state"), stats))
    }
  }

  test("tpch-topk: the safety search picks these sets; shared verdicts equal fresh ones") {
    val tpchStats = TpchLite.stats(0.02)
    val expected = Map(
      "Q1" -> Set("l_returnflag"), "Q3" -> Set("l_orderkey"), "Q5" -> Set("c_nationkey"),
      "Q10" -> Set("o_custkey"), "Q15" -> Set("l_suppkey", "s_suppkey"),
      "Q18" -> Set("l_orderkey", "o_orderkey"))
    for (w <- TpchLite.topKQueries) {
      val perTable = TpchLite.topKCandidatesFor(w.q)
      val chosen = Pbds.chooseSafe(w.q, perTable, tpchStats)
      assert(chosen.map(_.values.map(_.attr).toSet).contains(expected(w.name)), w.name)
      val checks = Some(new SafetyChecker.Checks(w.q, tpchStats))
      for (m <- Pbds.candidateSets(w.q, perTable)) {
        val attrs = m.values.map(_.attr).toSet
        assert(isSafe(w.q, attrs, tpchStats, checks) == isSafe(w.q, attrs, tpchStats), s"${w.name} $attrs")
      }
    }
  }

  // --- empirical cross-checks: verdict "safe" ⇒ Q[P] ≡ Q -----------------
  private def checkSafeVerdictHolds(q: Op, p: RangePartition): Unit = {
    val sk = Capture.capture(q, Seq(p), catalog)(p.table)
    val instrumented = Use.instrument(q, Map(p.table -> sk))
    assert(Lineage.sameResult(Lineage.result(instrumented, db), Lineage.result(q, db)),
      s"claimed safe but Q[P] differs: attr=${p.attr}")
    // Lemma 5: adding a fragment keeps the sketch safe.
    if (!sk.bits.isFull) {
      val extraFrag = (0 until p.nFragments).find(f => !sk.bits.get(f)).get
      val bigger = CapturedSketch(p, sk.bits.or(BitSketch.fromFragments(p.nFragments, Seq(extraFrag))))
      val inst2 = Use.instrument(q, Map(p.table -> bigger))
      assert(Lineage.sameResult(Lineage.result(inst2, db), Lineage.result(q, db)),
        s"superset sketch broke safety: attr=${p.attr}")
    }
  }

  test("empirical: every safe verdict on cities holds on the data") {
    checkSafeVerdictHolds(q1, fState)
    checkSafeVerdictHolds(q1, fPopden)
    checkSafeVerdictHolds(q2, fState)
    checkSafeVerdictHolds(qPopState(10000L, ">"), fPopden)
    checkSafeVerdictHolds(qPopState(7000L, "<"), fState)
    val having = Select(Col("cnt") > Lit(1L),
      Aggregate(Seq("state"), Seq(Agg(FCount, Col("city"), "cnt")), cities))
    checkSafeVerdictHolds(having, fPopden)
  }
}
