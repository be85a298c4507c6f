package repro.bench

import org.apache.spark.sql.{Column, Encoders, SparkSession}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.functions.{col, count, sum, udaf}
import repro.algebra._
import repro.core._
import repro.workloads.{Crimes, Movies}
import BenchUtil._

/** Capture optimizations (paper Sec. 9.2, Fig. 12). `Capture` runs only the
  * optimized kernels; the baselines exist here, timed against them:
  *   T6 — singleton-sketch creation: chained CASE (`caseColumn`) vs the
  *        binary-search UDF (`lookupColumn`) on the crimes table (Fig. 12a;
  *        paper: ~2 orders of magnitude at 10K)
  *   T7 — sketch merging: naive copying BITOR vs delay vs no-copy on the
  *        movie ratings table (Fig. 12b; paper: 0.5s → 0.2s → 0.16s)
  */
object CaptureOptExperiments {

  /** The three Fig. 12b merges of `p`'s fragments, as one aggregate column
    * each, keyed "naive", "noCopy" and "delay":
    *   - naive: singleton bitset (SNG) per row, copying `BitsetOrAgg`;
    *   - noCopy: SNG per row, in-place `BitsetOrAgg`;
    *   - delay: fragment index per row, `FragToBitsetAgg` (what `Capture`
    *     runs at the first aggregate).
    */
  def merges(p: RangePartition): Map[String, Column] = {
    val nw = BitSketch.nWords(p.nFragments)
    val sng = p.lookupColumn { i => val w = new Array[Long](nw); w(i >> 6) |= 1L << (i & 63); w }
    def bitor(copy: Boolean) =
      udaf(new Capture.BitsetOrAgg(nw, copy), ExpressionEncoder[Array[Long]]())(sng)
    Map("naive" -> bitor(copy = true), "noCopy" -> bitor(copy = false),
      "delay" -> udaf(new Capture.FragToBitsetAgg(p.nFragments), Encoders.INT)(
        p.lookupColumn(identity[Int])))
  }

  /** Returns (T6 rows: (nFrags, caseSec, bsSec), T7 rows: (nFrags, naive, delay, noCopy)). */
  def run(spark: SparkSession, crimesSf: Double, ratingsSf: Double,
          fragCounts: Seq[Int], reps: Int = 3): (Seq[(Int, Double, Double)], Seq[(Int, Double, Double, Double)]) = {
    // --- T6: singleton creation over crimes ------------------------------
    val crimes = Crimes.catalog(spark, crimesSf)("crimes").cache()
    crimes.count()
    header("T6", "Singleton creation: CASE chain vs binary search (s), cf. Fig. 12a",
      "nFrags", "caseSec", "binSearchSec", "caseOverBs")
    val t6 = for (nf <- fragCounts) yield {
      val p = RangePartition.equiDepth(crimes, "crimes", "cr_id", TLong, nf)
      def initTime(frag: Column): Double = timed(reps = reps) {
        crimes.select(frag.as("f")).agg(sum("f")).head()
      }
      val caseSec = initTime(p.caseColumn(col(p.attr)))
      val bsSec   = initTime(p.lookupColumn(identity[Int]))
      row("T6", nf, caseSec, bsSec, caseSec / bsSec)
      (nf, caseSec, bsSec)
    }

    // --- T7: merging all singleton sketches over ratings -----------------
    val ratings = Movies.catalog(spark, ratingsSf)("ratings").cache()
    ratings.count()
    header("T7", "Sketch merge: naive vs delay vs no-copy (s), cf. Fig. 12b",
      "nFrags", "naiveSec", "delaySec", "noCopySec")
    val t7 = for (nf <- fragCounts) yield {
      val m = merges(RangePartition.equiDepth(ratings, "ratings", "r_movieid", TLong, nf))
      def mergeTime(name: String): Double = timed(reps = reps) {
        ratings.agg(count(col("r_userid")), m(name)).head()
      }
      val (n, d, nc) = (mergeTime("naive"), mergeTime("delay"), mergeTime("noCopy"))
      row("T7", nf, n, d, nc)
      (nf, n, d, nc)
    }
    (t6, t7)
  }
}
