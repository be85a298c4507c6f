package repro.bench

import java.nio.file.Files

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.algebra._
import repro.core._
import repro.storage.{ZoneMapStore, ZoneMapTableStore}
import repro.workloads.{Crimes, Movies, StackOverflowW}
import BenchUtil._

/** Real-world dataset experiments (paper Sec. 9.4, Fig. 10):
  *   T9  — Crimes C-Q1/C-Q2: PBDS improvement + capture overhead
  *   T10 — Movies M-Q1..3 and Stack Overflow S-Q1/2/4/5
  * Sketches are built over the group-by attributes (PSMIX), as the paper
  * does for these queries (none have selection conditions).
  */
object RealWorldExperiments {

  final case class Case(name: String, q: Op, sketchAttrs: Map[String, String], nFrags: Int)

  private def runCases(spark: SparkSession, table: String, cases: Seq[Case],
                       memCat: Map[String, DataFrame], reps: Int): Seq[(String, Double, Double)] = {
    val baseDir = Files.createTempDirectory(s"rw-$table").toString
    val stores = scala.collection.mutable.Map.empty[(String, String), ZoneMapStore]
    def storeFor(t: String, a: String): ZoneMapStore =
      stores.getOrElseUpdate((t, a),
        ZoneMapStore.write(memCat(t), s"$baseDir/${t}_$a", a, 32))

    for (c <- cases) yield {
      require(SafetyChecker.isSafe(c.q, c.sketchAttrs.values.toSet),
        s"${c.name}: sketch attrs must be safe")
      val store = new ZoneMapTableStore(Algebra.tables(c.q).map { t =>
        t.name -> storeFor(t.name, c.sketchAttrs.getOrElse(t.name, t.schema.head._1))
      }.toMap)
      val (noPs, Seq(m)) = measure(spark, store, c.q, c.sketchAttrs, memCat, Seq(c.nFrags), reps)
      row(table, c.name, noPs, m.use, (1 - m.use / noPs) * 100, m.cap, m.cap / noPs - 1)
      (c.name, noPs, m.use)
    }
  }

  /** Returns (query, noPsSec, psSec) for every case. */
  def run(spark: SparkSession, crimesSf: Double, moviesSf: Double, sofSf: Double,
          reps: Int = 3): Seq[(String, Double, Double)] = {
    spark.conf.set("spark.sql.shuffle.partitions", "16")
    header("T9", "Crimes: PBDS improvement and capture overhead, cf. Fig. 10a/10b",
      "query", "noPsSec", "psSec", "improvementPct", "captureSec", "captureOverheadFactor")
    val crimesCat = Crimes.catalog(spark, crimesSf).map { case (k, v) => k -> v.cache() }
    crimesCat.values.foreach(_.count())
    val r1 = runCases(spark, "T9", Seq(
      Case("C-Q1", Crimes.cq1, Map("crimes" -> "area"), 77),
      Case("C-Q2", Crimes.cq2(thresholdAtRank(crimesCat("crimes"), "block", 15)),
        Map("crimes" -> "block"), 512),
    ), crimesCat, reps)

    header("T10", "Movies + Stack Overflow: PBDS improvement and capture overhead, cf. Fig. 10c/10d",
      "query", "noPsSec", "psSec", "improvementPct", "captureSec", "captureOverheadFactor")
    val movieCat = Movies.catalog(spark, moviesSf).map { case (k, v) => k -> v.cache() }
    movieCat.values.foreach(_.count())
    val r2 = runCases(spark, "T10", Seq(
      Case("M-Q1", Movies.mq1, Map("ratings" -> "r_movieid", "movies" -> "movieid"), 1024),
      Case("M-Q2", Movies.mq2(thresholdAtRank(movieCat("ratings"), "r_movieid", 40)),
        Map("ratings" -> "r_movieid"), 1024),
      Case("M-Q3", Movies.mq3, Map("ratings" -> "r_movieid", "tags" -> "t_movieid"), 1024),
    ), movieCat, reps)

    val sofCat = StackOverflowW.catalog(spark, sofSf).map { case (k, v) => k -> v.cache() }
    sofCat.values.foreach(_.count())
    val r3 = runCases(spark, "T10", Seq(
      Case("S-Q1", StackOverflowW.sq1, Map("users" -> "u_id", "posts" -> "p_owner"), 1024),
      Case("S-Q2", StackOverflowW.sq2, Map("users" -> "u_id", "comments" -> "cm_user"), 1024),
      Case("S-Q4", StackOverflowW.sq4, Map("users" -> "u_id", "badges" -> "b_user"), 1024),
      Case("S-Q5", StackOverflowW.sq5(
        thresholdAtRank(sofCat("comments"), "cm_user", 400),
        thresholdAtRank(sofCat("comments"), "cm_user", 20)),
        Map("users" -> "u_id", "comments" -> "cm_user"), 1024),
    ), sofCat, reps)
    r1 ++ r2 ++ r3
  }

  /** The count of the rank-th most frequent key — a scale-independent way
    * to pick HAVING thresholds with paper-like selectivity (the paper's
    * thresholds, e.g. ">63,300 ratings", target a handful of top groups).
    */
  def thresholdAtRank(df: DataFrame, keyCol: String, rank: Int): Long = {
    import org.apache.spark.sql.functions.{count, lit}
    val counts = df.groupBy(keyCol).agg(count(lit(1)).as("c"))
      .orderBy(org.apache.spark.sql.functions.col("c").desc).limit(rank)
      .collect().map(_.getLong(1))
    if (counts.isEmpty) 1L else math.max(1L, counts.last - 1)
  }
}
