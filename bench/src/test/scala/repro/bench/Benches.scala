package repro.bench

import repro.SparkSpec

/** Benchmark suites — one per evaluation table group (see DESIGN.md).
  * Run with `sbt "bench/test"`. Each suite prints `TABLE <id> | …` rows
  * (collected into EXPERIMENTS.md) and asserts only the paper's *shape*:
  * who wins and roughly where, never absolute numbers.
  */
class TpchBench extends SparkSpec {
  test("T1/T2/T3/T8: TPC-H selectivity, runtime, capture overhead, amortization") {
    val results = TpchExperiments.run(spark, sf = 0.2,
      fragCounts = Seq(64, 1024, 8192), reps = 2)
    // Shape: the selective top-k query Q3 must beat No-PS at high fragment
    // counts on the zone-mapped store (paper: orders of magnitude).
    val (q3NoPs, q3) = results("Q3")
    val q3Best = q3.map(_.use).min
    assert(q3Best < q3NoPs, s"Q3: PS best $q3Best not faster than No-PS $q3NoPs")
    // Q1 (non-selective) is allowed not to improve — no assertion.
    // Capture cost stays within a small factor of plain execution.
    for ((q, (noPs, ms)) <- results; m <- ms)
      assert(m.cap < noPs * 50, s"$q PS${m.nFrags}: capture ${m.cap}s vs plain ${noPs}s")
  }

  test("T4: OR-of-ranges vs binary-search decode") {
    TpchExperiments.decodeComparison(spark, sf = 0.1, nFrags = 1024, reps = 2)
  }
}

class MemBench extends SparkSpec {
  test("T5: main-memory (MonetDB analog) runtimes") {
    MemExperiments.run(spark, sf = 0.1, fragCounts = Seq(256, 1024), reps = 2)
  }
}

class CaptureOptBench extends SparkSpec {
  test("T6/T7: capture optimizations (init method, merge method)") {
    val (t6, t7) = CaptureOptExperiments.run(spark,
      crimesSf = 0.02, ratingsSf = 0.05, fragCounts = Seq(64, 512, 2048), reps = 2)
    // Fig. 12a shape: binary search beats the CASE chain at high fragment counts.
    val (nf, caseSec, bsSec) = t6.last
    assert(caseSec > bsSec, s"PS$nf: CASE ($caseSec s) should be slower than BS ($bsSec s)")
    // Fig. 12b shape: delay/no-copy do not lose to the naive copying merge
    // at the highest fragment count.
    val m = t7.last
    assert(math.min(m.delay, m.noCopy) <= m.naive * 1.1,
      s"PS${m.nFrags}: delay=${m.delay} noCopy=${m.noCopy} vs naive=${m.naive}")
  }
}

class RealWorldBench extends SparkSpec {
  test("T9/T10: crimes, movies, stack overflow improvements") {
    val rows = RealWorldExperiments.run(spark,
      crimesSf = 0.15, moviesSf = 0.1, sofSf = 0.05, reps = 2)
    // Paper shape: PBDS improves the strong majority of these queries
    // (30%–98% improvements); require that most improve.
    val improved = rows.count { case (_, noPs, ps) => ps < noPs }
    assert(improved * 2 >= rows.size,
      s"only $improved of ${rows.size} queries improved: $rows")
  }
}

class EndToEndBench extends SparkSpec {
  test("T11: self-tuning workloads (eager / adaptive vs No-PS)") {
    val summary = EndToEndExperiments.run(spark, crimesSf = 0.1, sofSf = 0.03,
      nQueries = 120)
    // Fig. 13 shape: with enough repetitions the self-tuning strategies
    // amortize capture and beat No-PS on the mixed workloads.
    for (label <- Seq("crimes-mixed", "sof-mixed")) {
      val s = summary(label)
      val best = math.min(s("eager"), s("adaptive"))
      assert(best < s("No-PS") * 1.15,
        s"$label: eager=${s("eager")} adaptive=${s("adaptive")} noPs=${s("No-PS")}")
    }
  }
}

class CheckOverheadBench extends org.scalatest.funsuite.AnyFunSuite {
  test("T12: safety and reuse checks cost milliseconds, not seconds") {
    val rows = CheckOverheadExperiments.run()
    for ((check, target, ms) <- rows)
      assert(ms < 2000, s"$check($target) took $ms ms")
  }
}
