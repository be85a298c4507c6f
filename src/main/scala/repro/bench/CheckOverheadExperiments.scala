package repro.bench

import scala.util.Random

import repro.core.{Pbds, ReuseChecker, SafetyChecker}
import repro.workloads.{Crimes, StackOverflowW, TpchLite}
import BenchUtil._

/** T12 — cost of the static safety and reuse checks (paper Sec. 9.5 text:
  * both ≈ 20 ms per check on Z3; ours run on the Fourier–Motzkin solver).
  * Besides single checks it times the traffic a fresh manager serves: the
  * whole safety search over the tpch-topk candidates, one template at a
  * time. Pure solver work — no Spark needed.
  */
object CheckOverheadExperiments {

  def run(): Seq[(String, String, Double)] = {
    header("T12", "Safety / reuse check cost (ms per check or per search), cf. Sec. 9.5",
      "check", "target", "calls", "ms")

    val stats = TpchLite.stats(0.1)
    val safetyRows = for (w <- TpchLite.queries) yield {
      val ms = timed(warmup = 2, reps = 5) {
        SafetyChecker.isSafe(w.q, w.sketchAttrs.values.toSet, stats)
      } * 1000
      row("T12", "safety", w.name, 1, ms)
      ("safety", w.name, ms)
    }

    val searchRows = for (w <- TpchLite.topKQueries) yield {
      val perTable = TpchLite.topKCandidatesFor(w.q)
      val sets = Pbds.candidateSets(w.q, perTable)
      val calls = Pbds.chooseSafe(w.q, perTable, stats).fold(sets.size)(sets.indexOf(_) + 1)
      val ms = timed(warmup = 2, reps = 5)(Pbds.chooseSafe(w.q, perTable, stats)) * 1000
      row("T12", "search", w.name, calls, ms)
      ("search", w.name, ms)
    }

    val rnd = new Random(3)
    val reuseTargets = Seq(
      ("crimes-areaHaving", Crimes.tAreaHaving,
        () => Map[String, Any]("t" -> (rnd.nextInt(5000).toLong + 1))),
      ("sof-commentsInterval", StackOverflowW.tCommentsInterval,
        () => { val lo = rnd.nextInt(100).toLong; Map[String, Any]("lo" -> lo, "hi" -> (lo + 10 + rnd.nextInt(200))) }),
    )
    val reuseRows = for ((name, tmpl, gen) <- reuseTargets) yield {
      val pairs = Seq.fill(10)((gen(), gen()))
      val ms = timed(warmup = 1, reps = 5) {
        pairs.foreach { case (a, b) => ReuseChecker.canReuse(tmpl, a, b) }
      } / pairs.size * 1000
      row("T12", "reuse", name, 1, ms)
      ("reuse", name, ms)
    }
    safetyRows ++ searchRows ++ reuseRows
  }
}
