package repro.bench

import org.apache.spark.sql.{Column, DataFrame, Encoders, SparkSession}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.functions.{array, coalesce, col, count, hash, lit, max, pmod, sum, udaf}
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
  *        movie ratings table (Fig. 12b; paper: 0.5s → 0.2s → 0.16s), and
  *        the `bit_or` word columns against delay, globally and grouped:
  *        the crossover behind `Capture.MaxWordColumns`
  */
object CaptureOptExperiments {

  /** `df` with the fragment index of `p` in column `frag`, as capture's
    * INIT computes it in a projection below the first aggregate. The
    * `merges` of `p` read it.
    */
  def withFragment(df: DataFrame, p: RangePartition): DataFrame =
    df.withColumn("frag", p.lookupColumn(identity[Int]))

  /** The Fig. 12b merges of `p`'s fragments and the word kernel, as one
    * aggregate column each over a `withFragment` frame, keyed "naive",
    * "noCopy", "delay" and "bitOr":
    *   - naive: singleton bitset (SNG) per row, copying `BitsetOrAgg`;
    *   - noCopy: SNG per row, in-place `BitsetOrAgg`;
    *   - delay: fragment index per row, `FragToBitsetAgg` (what `Capture`
    *     runs at the first aggregate above `MaxWordColumns` words);
    *   - bitOr: fragment index per row, one `bit_or` per word
    *     (`Capture.fragWords`, what `Capture` runs up to that width),
    *     gathered into an array with a NULL word read as 0.
    */
  def merges(p: RangePartition): Map[String, Column] = {
    val nw = BitSketch.nWords(p.nFragments)
    val sng = p.lookupColumn { i => val w = new Array[Long](nw); w(i >> 6) |= 1L << (i & 63); w }
    def bitor(copy: Boolean) =
      udaf(new Capture.BitsetOrAgg(nw, copy), ExpressionEncoder[Array[Long]]())(sng)
    Map("naive" -> bitor(copy = true), "noCopy" -> bitor(copy = false),
      "delay" -> udaf(new Capture.FragToBitsetAgg(p.nFragments), Encoders.INT)(col("frag")),
      "bitOr" -> array(Capture.fragWords(col("frag"), p.nFragments).map(coalesce(_, lit(0L))): _*))
  }

  /** One T7 row: seconds per merge, global (`ratings.agg`) and grouped
    * into 1000 equal buckets of `r_userid`.
    */
  final case class MergeTimes(nFrags: Int, naive: Double, delay: Double, noCopy: Double,
                              bitOr: Double, groupedDelay: Double, groupedBitOr: Double)

  /** Returns (T6 rows: (nFrags, caseSec, bsSec), T7 rows). T6 runs at
    * `fragCounts`; T7 at 1, 8, 32 and 128 words, both sides of
    * `Capture.MaxWordColumns`.
    */
  def run(spark: SparkSession, crimesSf: Double, ratingsSf: Double,
          fragCounts: Seq[Int], reps: Int = 3): (Seq[(Int, Double, Double)], Seq[MergeTimes]) = {
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
    header("T7", "Sketch merge: naive vs delay vs no-copy vs bit_or words (s), cf. Fig. 12b",
      "nFrags", "naiveSec", "delaySec", "noCopySec", "bitOrSec", "groupedDelaySec", "groupedBitOrSec")
    val t7 = for (nf <- Seq(64, 512, 2048, 8192)) yield {
      // Partitioned on the uniform `r_userid`: equi-depth keeps all `nf`
      // fragments, where the zipf-skewed `r_movieid` collapses to a few.
      val p = RangePartition.equiDepth(ratings, "ratings", "r_userid", TLong, nf)
      val (in, m) = (withFragment(ratings, p), merges(p))
      def mergeTime(name: String): Double = timed(reps = reps) {
        in.agg(count(col("r_userid")), m(name)).head()
      }
      // 1000 groups of about equal size, each spread over every fragment;
      // the outer aggregate reads every group's bitset, so the merge is
      // not pruned away.
      def groupedTime(name: String): Double = timed(reps = reps) {
        in.groupBy(pmod(col("r_userid"), lit(1000L))).agg(count(col("r_userid")).as("c"), m(name).as("m"))
          .agg(sum("c"), max(hash(col("m")))).head()
      }
      val t = MergeTimes(p.nFragments, mergeTime("naive"), mergeTime("delay"), mergeTime("noCopy"),
        mergeTime("bitOr"), groupedTime("delay"), groupedTime("bitOr"))
      row("T7", nf, t.naive, t.delay, t.noCopy, t.bitOr, t.groupedDelay, t.groupedBitOr)
      t
    }
    (t6, t7)
  }
}
