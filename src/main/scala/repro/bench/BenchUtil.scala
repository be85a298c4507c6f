package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.algebra.{Algebra, Op, ToSpark}
import repro.core.{Capture, CapturedSketch, RangePartition}
import repro.storage.TableStore

/** Timing and table-printing helpers shared by the benchmark suites and the
  * spark-submit jobs. Every experiment prints `TABLE <id> | col | …` rows so
  * EXPERIMENTS.md can be regenerated by grepping bench output.
  */
object BenchUtil {

  /** Wall-clock seconds of one evaluation (forces the DataFrame). */
  def time[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Median of `reps` timed runs after `warmup` untimed ones. */
  def timed(warmup: Int = 1, reps: Int = 3)(f: => Unit): Double = {
    (1 to warmup).foreach(_ => f)
    val ts = (1 to reps).map(_ => time(f)._2).sorted
    ts(ts.size / 2)
  }

  /** Force a DataFrame without collecting rows to the driver. The noop sink
    * consumes every row and column; `count()` would let Catalyst prune
    * unused aggregates and time a smaller plan.
    */
  def run(df: DataFrame): Unit = df.write.format("noop").mode("overwrite").save()

  /** One PBDS option of the Sec. 9 cost split: the sketches captured at
    * `nFrags` fragments, capture seconds (C_cap) and use seconds (C_use).
    */
  final case class Measured(nFrags: Int, sketches: Map[String, CapturedSketch],
                            cap: Double, use: Double)

  /** The measurement every per-query experiment makes over one store:
    * times `q` without sketches (C_noPs), then for each fragment count
    * builds equi-depth partitions on `sketchAttrs` (bounds drawn from
    * `histograms`), times capture over the store's catalog and times `q`
    * over `store.catalog(spark, sketches)`. Returns C_noPs and one
    * `Measured` per fragment count.
    */
  def measure(spark: SparkSession, store: TableStore, q: Op, sketchAttrs: Map[String, String],
              histograms: Map[String, DataFrame], fragCounts: Seq[Int],
              reps: Int): (Double, Seq[Measured]) = {
    val types = Algebra.baseTypes(q)
    val catalog = store.catalog(spark)
    val noPs = timed(reps = reps)(run(ToSpark.compile(q, catalog)))
    val measured = fragCounts.map { nf =>
      val parts = sketchAttrs.map { case (t, a) =>
        RangePartition.equiDepth(histograms(t), t, a, types(a), nf)
      }.toSeq
      val (sketches, cap) = time(Capture.capture(q, parts, catalog))
      val use = timed(reps = reps)(run(ToSpark.compile(q, store.catalog(spark, sketches))))
      Measured(nf, sketches, cap, use)
    }
    (noPs, measured)
  }

  def row(table: String, cols: Any*): Unit = {
    val cells = cols.map {
      case d: Double => f"$d%.4f"
      case x         => String.valueOf(x)
    }
    println((s"TABLE $table" +: cells).mkString(" | "))
  }

  def header(table: String, title: String, cols: String*): Unit = {
    println(s"TABLE $table # $title")
    println((s"TABLE $table" +: cols).mkString(" | "))
  }

  /** Fig. 14 computation: given the measured cost of running plain
    * (cNoPs), capturing (cCap) and using a sketch (cUse) per option, return
    * for each repetition-count interval the option minimizing total cost
    * cCap + n·cUse (or n·cNoPs for No-PS). Mirrors the paper's formulas.
    */
  def optimalIntervals(cNoPs: Double, options: Seq[(String, Double, Double)],
                       maxN: Int = 100000): Seq[(String, Int, Option[Int])] = {
    def costOf(name: String, n: Int): Double =
      if (name == "No-PS") cNoPs * n
      else options.find(_._1 == name).map { case (_, cap, use) => cap + use * n }.get
    val names = "No-PS" +: options.map(_._1)
    def best(n: Int): String = names.minBy(costOf(_, n))
    val breaks = scala.collection.mutable.ListBuffer.empty[(String, Int, Option[Int])]
    var cur = best(1); var start = 1
    // geometric sweep is enough — cost lines cross at most once per pair
    var n = 1
    while (n <= maxN) {
      val b = best(n)
      if (b != cur) {
        // binary search the exact crossover in (start, n]
        var lo = start; var hi = n
        while (lo + 1 < hi) { val mid = (lo + hi) / 2; if (best(mid) == cur) lo = mid else hi = mid }
        breaks += ((cur, start, Some(hi)))
        cur = b; start = hi
      }
      n = math.max(n + 1, (n * 1.3).toInt)
    }
    breaks += ((cur, start, None))
    breaks.toList
  }
}
