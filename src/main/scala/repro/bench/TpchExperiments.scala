package repro.bench

import java.nio.file.Files

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import repro.algebra._
import repro.core._
import repro.storage.{ZoneMapStore, ZoneMapTableStore}
import repro.workloads.TpchLite
import BenchUtil._

/** TPC-H experiments (paper Sec. 9.3):
  *   T1 — sketch selectivity per query/table vs #fragments (Fig. 9)
  *   T2 — runtime No-PS vs PS on the zone-mapped disk store (Fig. 11a/d)
  *   T3 — capture overhead relative to plain execution (Fig. 11b/e)
  *   T4 — OR-of-ranges decode vs binary-search membership (Fig. 11c)
  *   T8 — optimal #fragments per repetition count (Fig. 14)
  */
object TpchExperiments {

  def run(spark: SparkSession, sf: Double, fragCounts: Seq[Int],
          zoneFiles: Int = 48, reps: Int = 3): Map[String, (Double, Seq[Measured])] = {
    val baseDir = Files.createTempDirectory("tpch-zms").toString
    // scan-vs-skip is the measured effect; keep shuffle latency small
    spark.conf.set("spark.sql.shuffle.partitions", "16")
    val mem = TpchLite.catalog(spark, sf).map { case (k, v) => k -> v.cache() }
    mem.values.foreach(_.count()) // materialize the generators once

    // Physical design: one zone-mapped clustering per (table, sketch attr),
    // like the paper's per-column indexes/zone maps.
    val stores = scala.collection.mutable.Map.empty[(String, String), ZoneMapStore]
    def storeFor(table: String, attr: String): ZoneMapStore =
      stores.getOrElseUpdate((table, attr), {
        val nf = if (table == "lineitem") zoneFiles else math.max(8, zoneFiles / 4)
        ZoneMapStore.write(mem(table), s"$baseDir/${table}_$attr", attr, nf)
      })

    header("T1", "Sketch selectivity (fraction of fragments covered), cf. Fig. 9",
      "query", "table", "attr", "nFrags", "selectivity")
    header("T2", "Runtime No-PS vs PS on zone-mapped store (s), cf. Fig. 11a/11d",
      "query", "variant", "seconds", "speedup")
    header("T3", "Capture overhead vs plain execution, cf. Fig. 11b/11e",
      "query", "nFrags", "captureSec", "plainSec", "overheadPct")
    header("T8", "Optimal option per repetition interval, cf. Fig. 14",
      "query", "option", "fromRuns", "toRuns")

    val results = scala.collection.mutable.Map.empty[String, (Double, Seq[Measured])]

    for (w <- TpchLite.queries) {
      // disk store: every accessed table scanned from its clustered copy
      val (aliased, direct) = Algebra.tables(w.q).partition(_.name == "lineitem2")
      val zoned = direct.map { t =>
        t.name -> storeFor(t.name, w.sketchAttrs.getOrElse(t.name, t.schema.head._1))
      }.toMap
      val lineitem2 = aliased.map { t =>
        t.name -> storeFor("lineitem", w.sketchAttrs.getOrElse("lineitem", "l_orderkey"))
          .scanAll(spark).selectExpr("l_partkey as l2_partkey", "l_quantity as l2_quantity")
      }.toMap
      val store = new ZoneMapTableStore(zoned, lineitem2)

      val safe = SafetyChecker.isSafe(w.q, w.sketchAttrs.values.toSet, TpchLite.stats(sf))
      require(safe, s"${w.name}: declared sketch attrs must be safe")

      val (noPs, measured) = measure(spark, store, w.q, w.sketchAttrs, mem, fragCounts, reps)
      row("T2", w.name, "No-PS", noPs, 1.0)
      for (m <- measured) {
        m.sketches.foreach { case (t, sk) =>
          row("T1", w.name, t, sk.partition.attr, m.nFrags, sk.selectivity)
        }
        row("T3", w.name, m.nFrags, m.cap, noPs, (m.cap / noPs - 1) * 100)
        row("T2", w.name, s"PS${m.nFrags}", m.use, noPs / m.use)
      }

      val opts = measured.map(m => (s"PS${m.nFrags}", m.cap, m.use))
      for ((name, from, to) <- optimalIntervals(noPs, opts))
        row("T8", w.name, name, from, to.map(_.toString).getOrElse("inf"))

      results(w.name) = (noPs, measured)
    }
    results.toMap
  }

  /** T4: decode strategy comparison on the in-memory store for the most
    * selective queries (cf. Fig. 11c OR vs binary search). `filterSec` times
    * `CapturedSketch.filter`, the decode the stores apply: the OR for a
    * sketch of at most `ZoneMapStore.MaxOrRanges` merged `ranges`, binary
    * search beyond.
    */
  def decodeComparison(spark: SparkSession, sf: Double, nFrags: Int, reps: Int = 3): Unit = {
    val mem = TpchLite.catalog(spark, sf).map { case (k, v) => k -> v.cache() }
    mem.values.foreach(_.count())
    header("T4", s"Sketch decode: OR-of-ranges vs binary-search UDF (s), PS$nFrags, cf. Fig. 11c",
      "query", "noPsSec", "orSec", "bsSec", "filterSec", "ranges")
    for (w <- Seq(TpchLite.queries.find(_.name == "Q3").get,
                  TpchLite.queries.find(_.name == "Q10").get,
                  TpchLite.queries.find(_.name == "Q18").get)) {
      val types = Algebra.baseTypes(w.q)
      val parts = w.sketchAttrs.map { case (t, a) =>
        RangePartition.equiDepth(mem(t), t, a, types(a), nFrags)
      }.toSeq
      val sketches = Capture.capture(w.q, parts, mem)
      def decoded(decode: CapturedSketch => Column): Map[String, DataFrame] =
        mem.map { case (t, df) => t -> sketches.get(t).fold(df)(s => df.filter(decode(s))) }
      val noPs = timed(reps = reps)(BenchUtil.run(ToSpark.compile(w.q, mem)))
      val orSec = timed(reps = reps)(BenchUtil.run(ToSpark.compile(w.q, decoded(_.toColumn))))
      val bsSec = timed(reps = reps)(BenchUtil.run(ToSpark.compile(w.q, decoded(_.membership))))
      val filterSec = timed(reps = reps)(BenchUtil.run(ToSpark.compile(w.q, decoded(_.filter))))
      val ranges = sketches.toSeq.sortBy(_._1)
        .map { case (t, s) => s"$t:${s.partition.mergedRanges(s.fragments).size}" }.mkString(",")
      row("T4", w.name, noPs, orSec, bsSec, filterSec, ranges)
    }
  }
}
