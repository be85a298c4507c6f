package perfbench

import scala.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.algebra._
import repro.core.{RangePartition, SafetyChecker, Template}
import repro.storage.{ZoneMapStore, ZoneMapTableStore}
import repro.workloads.{Crimes, StackOverflowW, TpchLite}

/** One zone-mapped table of a workload: generator, clustering attribute,
  * file count, and the candidate sketch partitions (attribute, type,
  * fragment count) the manager may choose from.
  */
final case class TableSpec(name: String, gen: (SparkSession, Double) => DataFrame,
                           zoneAttr: String, zoneFiles: Int,
                           candidates: Seq[(String, SqlType, Int)])

/** What one set-up produced: the zone maps on disk and the partitions. */
final case class Env(zones: Map[String, ZoneMapStore],
                     candidates: Map[String, Seq[RangePartition]]) {
  /** A store over the same files with empty scan caches, so every pass
    * starts from the same state and makes the same decisions.
    */
  def freshStore: ZoneMapTableStore = new ZoneMapTableStore(zones.map { case (t, z) =>
    t -> new ZoneMapStore(z.path, z.attr, z.zones) })
}

final case class Instance(template: Template, binding: Map[String, Any]) {
  def label: String =
    s"${template.name}(${binding.toSeq.sortBy(_._1).map { case (k, v) => s"$k=$v" }.mkString(",")})"
}

/** A benchmark workload: tables at a pinned scale factor and a seeded
  * stream of template instances. Template order is drawn in blocks that
  * hold every template once, so the template mix of a stream does not
  * depend on the seed; the seed picks the order and the parameters.
  */
trait Workload {
  def name: String
  def scale(smoke: Boolean): Double
  def tables: Seq[TableSpec]
  def stats(sf: Double): SafetyChecker.Stats
  def templates: Seq[Template]
  def streamLength(smoke: Boolean): Int
  def binding(t: Template, rnd: Random, sf: Double): Map[String, Any]

  final def stream(seed: Long, sf: Double, smoke: Boolean): IndexedSeq[Instance] = {
    val rnd = new Random(seed)
    val n = streamLength(smoke)
    Iterator.continually(rnd.shuffle(templates)).flatten.take(n)
      .map(t => Instance(t, binding(t, rnd, sf))).toIndexedSeq
  }
}

object Workloads {
  /** Normal draw rounded to a grid (the paper's parameter generation). */
  def gridNormal(rnd: Random, mu: Double, sdv: Double, grid: Long, lo: Long): Long =
    math.max(lo, math.round((mu + rnd.nextGaussian() * sdv) / grid) * grid)

  /** Fig. 13a: four HAVING templates over Crimes. Capture- and
    * reuse-check-heavy; block sketches have no zone map behind them.
    */
  object CrimesHaving extends Workload {
    val name = "crimes-having"
    def scale(smoke: Boolean): Double = if (smoke) 0.002 else 0.03
    val tables = Seq(TableSpec("crimes", (s, sf) => SynthData.crimes(s, sf), "area", 32,
      Seq(("area", TLong, 77), ("block", TString, 512), ("ctype", TString, 5))))
    def stats(sf: Double): SafetyChecker.Stats = SafetyChecker.Stats()
    val templates = Seq(
      Template("areaHaving", Crimes.tAreaHaving),
      Template("blockHaving", Crimes.tBlockHaving),
      Template("areaYearHaving", Crimes.tAreaYearHaving),
      Template("typeHaving", Crimes.tTypeHaving))
    def streamLength(smoke: Boolean): Int = if (smoke) 8 else 48
    /** Parameter spread relative to the T11 experiment. A capture costs
      * about four uses, so the capture count sets throughput; at T11's
      * spread it swings by a third between seeds of a 48-instance stream.
      */
    private val Sdv = 0.3
    def binding(t: Template, rnd: Random, sf: Double): Map[String, Any] = {
      val rows = 6700000L * sf
      val areaMu = rows / 77.0 * 1.6
      val blockMu = rows / 5000.0 * 8
      val typeMu = rows / 5.0 * 1.05
      t.name match {
        case "areaHaving"  => Map("t" -> gridNormal(rnd, areaMu, areaMu * 0.1 * Sdv, 50, 1))
        case "blockHaving" => Map("t" -> gridNormal(rnd, blockMu, blockMu * 0.1 * Sdv, 10, 1))
        case "typeHaving"  => Map("t" -> gridNormal(rnd, typeMu, typeMu * 0.02 * Sdv, 100, 1))
        case _ =>
          val y1 = 2001 + rnd.nextInt(12)
          Map("t" -> gridNormal(rnd, areaMu / 3, areaMu * 0.05 * Sdv, 50, 1),
              "y1" -> y1, "y2" -> (y1 + 3 + rnd.nextInt(5)))
      }
    }
  }

  /** Fig. 13e: three HAVING templates over users joined with posts,
    * comments and badges; two-table sketches, use-heavy through joins.
    */
  object SofHaving extends Workload {
    val name = "sof-having"
    def scale(smoke: Boolean): Double = if (smoke) 0.001 else 0.01
    val tables = Seq(
      TableSpec("users", (s, sf) => SynthData.sofUsers(s, sf), "u_id", 16,
        Seq(("u_id", TLong, 512))),
      TableSpec("posts", (s, sf) => SynthData.sofPosts(s, sf), "p_owner", 32,
        Seq(("p_owner", TLong, 512))),
      TableSpec("comments", (s, sf) => SynthData.sofComments(s, sf), "cm_user", 32,
        Seq(("cm_user", TLong, 512))),
      TableSpec("badges", (s, sf) => SynthData.sofBadges(s, sf), "b_user", 32,
        Seq(("b_user", TLong, 512))))
    def stats(sf: Double): SafetyChecker.Stats = SafetyChecker.Stats()
    val templates = Seq(
      Template("postsHaving", StackOverflowW.tPostsHaving),
      Template("commentsInterval", StackOverflowW.tCommentsInterval),
      Template("badgesHaving", StackOverflowW.tBadgesHaving))
    def streamLength(smoke: Boolean): Int = if (smoke) 6 else 30
    // Per-user means of the zipf-skewed tables, times 30: the selective tail.
    private val postsMu = 4850000.0 / 1250000 * 30
    private val commentsMu = 7590000.0 / 1250000 * 30
    private val badgesMu = 3590000.0 / 1250000 * 30
    def binding(t: Template, rnd: Random, sf: Double): Map[String, Any] = t.name match {
      case "postsHaving"  => Map("t" -> gridNormal(rnd, postsMu, postsMu * 0.15, 5, 1))
      case "badgesHaving" => Map("t" -> gridNormal(rnd, badgesMu, badgesMu * 0.15, 5, 1))
      case _ =>
        val lo = gridNormal(rnd, commentsMu, commentsMu * 0.15, 5, 1)
        Map("lo" -> lo, "hi" -> (lo + gridNormal(rnd, commentsMu, commentsMu * 0.3, 5, 5)))
    }
  }

  /** The fixed TPC-H-lite top-k queries as parameterless templates: every
    * repeat is an exact sketch hit, so the reuse checker is bypassed and
    * top-k re-validation, fallback, the many-range decode (Q18) and the
    * blacklisted plain bypass (Q1) carry the cost.
    */
  object TpchTopK extends Workload {
    val name = "tpch-topk"
    def scale(smoke: Boolean): Double = if (smoke) 0.002 else 0.02
    val tables = Seq(
      TableSpec("lineitem", (s, sf) => SynthData.lineitem(s, sf), "l_orderkey", 32,
        Seq(("l_orderkey", TLong, 256), ("l_suppkey", TLong, 64), ("l_returnflag", TString, 3))),
      TableSpec("orders", (s, sf) => SynthData.orders(s, sf), "o_orderkey", 16,
        Seq(("o_orderkey", TLong, 256), ("o_custkey", TLong, 256))),
      TableSpec("customer", (s, sf) => SynthData.customer(s, sf), "c_custkey", 8,
        Seq(("c_custkey", TLong, 64), ("c_nationkey", TInt, 25))),
      TableSpec("supplier", (s, sf) => SynthData.supplier(s, sf), "s_suppkey", 4,
        Seq(("s_suppkey", TLong, 16), ("s_nationkey", TInt, 25))))
    def stats(sf: Double): SafetyChecker.Stats = TpchLite.stats(sf)
    private val chosen = Set("Q1", "Q3", "Q5", "Q10", "Q15", "Q18")
    val templates: Seq[Template] =
      TpchLite.queries.filter(w => chosen(w.name)).map(w => Template(w.name, w.q))
    def streamLength(smoke: Boolean): Int = if (smoke) 12 else 18
    def binding(t: Template, rnd: Random, sf: Double): Map[String, Any] = Map.empty
  }

  val all: Seq[Workload] = Seq(CrimesHaving, SofHaving, TpchTopK)

  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(sys.error(s"unknown workload $n; known: ${all.map(_.name).mkString(", ")}"))
}
