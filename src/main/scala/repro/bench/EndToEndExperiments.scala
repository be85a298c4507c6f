package repro.bench

import java.nio.file.Files

import scala.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.algebra._
import repro.core._
import repro.storage.{TableStore, ZoneMapStore, ZoneMapTableStore}
import repro.workloads.{Crimes, StackOverflowW}
import BenchUtil._

/** T11 — end-to-end self-tuning experiment (paper Sec. 9.5, Fig. 13).
  *
  * Workloads of template instances with normally distributed parameters run
  * under three regimes: No-PS (plain execution), *eager* (capture on every
  * miss), and *adaptive* (capture after accumulated evidence). Cumulative
  * runtime is reported at checkpoints, plus sweeps over query selectivity
  * (via the HAVING threshold regime) and the parameter standard deviation.
  */
object EndToEndExperiments {

  /** Normal draw rounded to a grid (the paper's parameter generation). */
  private def gridNormal(rnd: Random, mu: Double, sdv: Double, grid: Long, lo: Long): Long =
    math.max(lo, math.round((mu + rnd.nextGaussian() * sdv) / grid) * grid)

  private val strategies = Seq(
    "No-PS"    -> None,
    "eager"    -> Some(Pbds.Eager),
    "adaptive" -> Some(Pbds.Adaptive(3)),
  )

  /** Run one workload under all strategies; returns strategy → cumulative s.
    * No-PS compiles each instance over `store.catalog`; the others run it
    * through a fresh manager. Prints a T11 row per checkpoint with the
    * improvement over No-PS.
    */
  def runWorkload(spark: SparkSession, label: String, store: TableStore,
                  mkManager: Pbds.Strategy => PbdsManager,
                  instances: Seq[(Template, Map[String, Any])],
                  checkpoints: Seq[Int]): Map[String, Double] = {
    val cumAt = scala.collection.mutable.Map.empty[(String, Int), Double]
    val finals = scala.collection.mutable.Map.empty[String, Double]
    for ((stratName, strategy) <- strategies) {
      val runOne: (Template, Map[String, Any]) => DataFrame = strategy match {
        case None    => (t, b) => ToSpark.compile(Algebra.bind(t.op, b), store.catalog(spark))
        case Some(s) => val m = mkManager(s); (t, b) => m.run(t, b)._1
      }
      var cum = 0.0
      instances.zipWithIndex.foreach { case ((t, b), i) =>
        val (_, sec) = time(BenchUtil.run(runOne(t, b)))
        cum += sec
        if (checkpoints.contains(i + 1)) cumAt((stratName, i + 1)) = cum
      }
      finals(stratName) = cum
    }
    for (cp <- checkpoints; (strat, _) <- strategies) {
      val base = cumAt(("No-PS", cp)); val c = cumAt((strat, cp))
      row("T11", label, strat, cp, c, (1 - c / base) * 100)
    }
    finals.toMap
  }

  /** Returns workload label → (strategy → final cumulative seconds). */
  def run(spark: SparkSession, crimesSf: Double, sofSf: Double,
          nQueries: Int = 60, seed: Long = 17): Map[String, Map[String, Double]] = {
    val summary = scala.collection.mutable.Map.empty[String, Map[String, Double]]
    spark.conf.set("spark.sql.shuffle.partitions", "16")
    header("T11", "End-to-end self-tuning: cumulative seconds and improvement vs No-PS, cf. Fig. 13",
      "workload", "strategy", "nQueries", "cumulativeSec", "improvementPct")
    val checkpoints = Seq(10, 25, nQueries).distinct.filter(_ <= nQueries)

    // ---- Crimes: 4 mixed templates (Fig. 13a) ---------------------------
    val crimesRows = 6700000L * crimesSf
    val areaMu  = crimesRows / 77.0 * 1.6   // selective tail of the area counts
    val blockMu = crimesRows / 5000.0 * 8
    val typeMu  = crimesRows / 5.0 * 1.05
    val crimesDir = Files.createTempDirectory("e2e-crimes").toString
    val crimesDf = Crimes.catalog(spark, crimesSf)("crimes")
    val crimesStore = new ZoneMapTableStore(Map(
      "crimes" -> ZoneMapStore.write(crimesDf, s"$crimesDir/crimes", "area", 32)))
    val crimesScan = crimesStore.scan(spark, "crimes")
    val crimesCands = Map("crimes" -> Seq(
      RangePartition.equiDepth(crimesScan, "crimes", "area", TLong, 77),
      RangePartition.equiDepth(crimesScan, "crimes", "block", TString, 512),
      RangePartition.equiDepth(crimesScan, "crimes", "ctype", TString, 5)))
    def mkCrimes(s: Pbds.Strategy) = new PbdsManager(spark, crimesStore, crimesCands, strategy = s)

    def crimesInstances(rnd: Random, sdvFactor: Double, n: Int): Seq[(Template, Map[String, Any])] = {
      val ts = Seq(
        Template("areaHaving", Crimes.tAreaHaving),
        Template("blockHaving", Crimes.tBlockHaving),
        Template("areaYearHaving", Crimes.tAreaYearHaving),
        Template("typeHaving", Crimes.tTypeHaving))
      (1 to n).map { _ =>
        val t = ts(rnd.nextInt(ts.size))
        val b: Map[String, Any] = t.name match {
          case "areaHaving"  => Map("t" -> gridNormal(rnd, areaMu, areaMu * 0.1 * sdvFactor, 50, 1))
          case "blockHaving" => Map("t" -> gridNormal(rnd, blockMu, blockMu * 0.1 * sdvFactor, 10, 1))
          case "typeHaving"  => Map("t" -> gridNormal(rnd, typeMu, typeMu * 0.02 * sdvFactor, 100, 1))
          case _ =>
            val y1 = 2001 + rnd.nextInt(12)
            Map("t" -> gridNormal(rnd, areaMu / 3, areaMu * 0.05 * sdvFactor, 50, 1),
                "y1" -> y1, "y2" -> (y1 + 3 + rnd.nextInt(5)))
        }
        (t, b)
      }
    }
    summary("crimes-mixed") = runWorkload(spark, "crimes-mixed", crimesStore, mkCrimes,
      crimesInstances(new Random(seed), 1.0, nQueries), checkpoints)

    // ---- Crimes selectivity sweep (Fig. 13b): threshold regimes ---------
    for ((regime, mu) <- Seq(("sel-high", areaMu * 2.2), ("sel-mid", areaMu),
                             ("sel-low", areaMu * 0.2))) {
      val rnd = new Random(seed + regime.hashCode)
      val inst = (1 to nQueries / 3).map { _ =>
        (Template("areaHaving", Crimes.tAreaHaving),
         Map[String, Any]("t" -> gridNormal(rnd, mu, mu * 0.1, 50, 1)))
      }
      summary(s"crimes-$regime") = runWorkload(spark, s"crimes-$regime", crimesStore, mkCrimes,
        inst, Seq(nQueries / 3))
    }

    // ---- Crimes SDV sweep (Fig. 13c/d analog) ---------------------------
    for ((label, f) <- Seq(("sdv-small", 0.3), ("sdv-large", 3.0))) {
      summary(s"crimes-$label") = runWorkload(spark, s"crimes-$label", crimesStore, mkCrimes,
        crimesInstances(new Random(seed + 5), f, nQueries / 3), Seq(nQueries / 3))
    }

    // ---- Stack Overflow: 3 templates (Fig. 13e) -------------------------
    val sofDir = Files.createTempDirectory("e2e-sof").toString
    val sofCat = StackOverflowW.catalog(spark, sofSf)
    val sofStore = new ZoneMapTableStore(Map(
      "users"    -> ZoneMapStore.write(sofCat("users"), s"$sofDir/users", "u_id", 16),
      "posts"    -> ZoneMapStore.write(sofCat("posts"), s"$sofDir/posts", "p_owner", 32),
      "comments" -> ZoneMapStore.write(sofCat("comments"), s"$sofDir/comments", "cm_user", 32),
      "badges"   -> ZoneMapStore.write(sofCat("badges"), s"$sofDir/badges", "b_user", 32)))
    def scan(t: String) = sofStore.scan(spark, t)
    val sofCands = Map(
      "users"    -> Seq(RangePartition.equiDepth(scan("users"), "users", "u_id", TLong, 512)),
      "posts"    -> Seq(RangePartition.equiDepth(scan("posts"), "posts", "p_owner", TLong, 512)),
      "comments" -> Seq(RangePartition.equiDepth(scan("comments"), "comments", "cm_user", TLong, 512)),
      "badges"   -> Seq(RangePartition.equiDepth(scan("badges"), "badges", "b_user", TLong, 512)))
    def mkSof(s: Pbds.Strategy) = new PbdsManager(spark, sofStore, sofCands, strategy = s)

    val postsMu    = 4850000L * sofSf / (1250000L * sofSf) * 30  // tail users
    val commentsMu = 7590000L * sofSf / (1250000L * sofSf) * 30
    val badgesMu   = 3590000L * sofSf / (1250000L * sofSf) * 30
    val rndS = new Random(seed + 9)
    val sofTs = Seq(
      Template("postsHaving", StackOverflowW.tPostsHaving),
      Template("commentsInterval", StackOverflowW.tCommentsInterval),
      Template("badgesHaving", StackOverflowW.tBadgesHaving))
    val sofInstances = (1 to nQueries).map { _ =>
      val t = sofTs(rndS.nextInt(sofTs.size))
      val b: Map[String, Any] = t.name match {
        case "postsHaving"  => Map("t" -> gridNormal(rndS, postsMu, postsMu * 0.15, 5, 1))
        case "badgesHaving" => Map("t" -> gridNormal(rndS, badgesMu, badgesMu * 0.15, 5, 1))
        case _ =>
          val lo = gridNormal(rndS, commentsMu, commentsMu * 0.15, 5, 1)
          Map("lo" -> lo, "hi" -> (lo + gridNormal(rndS, commentsMu, commentsMu * 0.3, 5, 5)))
      }
      (t, b)
    }
    summary("sof-mixed") =
      runWorkload(spark, "sof-mixed", sofStore, mkSof, sofInstances, checkpoints)
    summary.toMap
  }
}
