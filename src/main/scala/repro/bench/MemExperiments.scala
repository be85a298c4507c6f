package repro.bench

import org.apache.spark.sql.SparkSession
import repro.algebra._
import repro.core._
import repro.storage.MemTableStore
import repro.workloads.TpchLite
import BenchUtil._

/** T5 — main-memory system analog (paper Fig. 11f–i, MonetDB): cached
  * DataFrames, no physical design to exploit; a sketch only reduces the
  * data flowing into joins/aggregations at the price of evaluating its
  * decode condition per tuple. Expect smaller (sometimes negative at high
  * fragment counts) benefit than the disk store, as in the paper.
  */
object MemExperiments {

  def run(spark: SparkSession, sf: Double, fragCounts: Seq[Int], reps: Int = 3): Unit = {
    spark.conf.set("spark.sql.shuffle.partitions", "16")
    val mem = TpchLite.catalog(spark, sf).map { case (k, v) => k -> v.cache() }
    mem.values.foreach(_.count())
    val store = new MemTableStore(mem)
    header("T5", "Main-memory (MonetDB analog): runtime and capture overhead, cf. Fig. 11f-i",
      "query", "variant", "seconds", "speedup", "captureSec", "captureOverheadPct")
    for (w <- TpchLite.queries if w.name != "Q1") {
      val types = Algebra.baseTypes(w.q)
      val noPs = timed(reps = reps)(BenchUtil.run(ToSpark.compile(w.q, mem)))
      row("T5", w.name, "No-PS", noPs, 1.0, 0.0, 0.0)
      for (nf <- fragCounts) {
        val parts = w.sketchAttrs.map { case (t, a) =>
          RangePartition.equiDepth(mem(t), t, a, types(a), nf)
        }.toSeq
        val (sketches, capSec) = time(Capture.capture(w.q, parts, mem))
        val useCat = mem.map { case (t, df) =>
          t -> sketches.get(t).fold(df)(store.scanWithSketch(spark, t, _))
        }
        val useSec = timed(reps = reps)(BenchUtil.run(ToSpark.compile(w.q, useCat)))
        row("T5", w.name, s"PS$nf", useSec, noPs / useSec, capSec, (capSec / noPs - 1) * 100)
      }
    }
  }
}
