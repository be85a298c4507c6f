package repro.bench

import org.apache.spark.sql.SparkSession
import repro.storage.ZoneMapTableStore
import repro.workloads.TpchLite
import BenchUtil._

/** T5 — main-memory system analog (paper Fig. 11f–i, MonetDB): cached
  * DataFrames in a `ZoneMapTableStore` without zone maps, so there is no
  * physical design to exploit; a sketch only reduces the data flowing into
  * joins/aggregations at the price of evaluating its decode condition per
  * tuple. Expect smaller (sometimes negative at high fragment counts)
  * benefit than the disk store, as in the paper.
  */
object MemExperiments {

  def run(spark: SparkSession, sf: Double, fragCounts: Seq[Int], reps: Int = 3): Unit = {
    spark.conf.set("spark.sql.shuffle.partitions", "16")
    val mem = TpchLite.catalog(spark, sf).map { case (k, v) => k -> v.cache() }
    mem.values.foreach(_.count())
    val store = new ZoneMapTableStore(Map.empty, mem)
    header("T5", "Main-memory (MonetDB analog): runtime and capture overhead, cf. Fig. 11f-i",
      "query", "variant", "seconds", "speedup", "captureSec", "captureOverheadPct")
    for (w <- TpchLite.queries if w.name != "Q1") {
      val (noPs, measured) = measure(spark, store, w.q, w.sketchAttrs, mem, fragCounts, reps)
      row("T5", w.name, "No-PS", noPs, 1.0, 0.0, 0.0)
      for (m <- measured)
        row("T5", w.name, s"PS${m.nFrags}", m.use, noPs / m.use, m.cap, (m.cap / noPs - 1) * 100)
    }
  }
}
