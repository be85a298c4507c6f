package repro.core

import java.nio.file.Files

import org.apache.spark.sql.catalyst.expressions.ScalaUDF
import repro.{Fixtures, SparkSpec}
import repro.algebra._

/** Self-tuning manager behaviour (Sec. 9.5 strategies). */
class PbdsSpec extends SparkSpec {
  import Fixtures._
  import repro.storage.{ZoneMapStore, ZoneMapTableStore}
  import repro.workloads.TpchLite

  private lazy val citiesDf = sparkDf(spark, citiesSchema, citiesRows)
  private lazy val store = new ZoneMapTableStore(Map.empty, Map("cities" -> citiesDf))
  private val fState = RangePartition("cities", "state", TString, stateBounds.toIndexedSeq)
  private val stats = SafetyChecker.Stats(Map("popden" -> (2000L, 7000L)))

  /** Ex. 7 template: HAVING count with two parameters. */
  private val tmpl = Template("ex7", Select(Col("cnt") > Param("p2"),
    Aggregate(Seq("state"), Seq(Agg(FCount, Col("city"), "cnt")),
      Select(Col("popden") >= Param("p1"), cities))))

  private def manager(strategy: Pbds.Strategy = Pbds.Eager) =
    new PbdsManager(spark, store, Map("cities" -> Seq(fState)), stats, strategy)

  private def resultSet(df: org.apache.spark.sql.DataFrame): Set[String] =
    df.collect().map(_.toSeq.mkString("|")).toSet

  test("eager: capture on miss, use on hit, reuse on compatible binding") {
    val m = manager()
    val b1 = Map[String, Any]("p1" -> 2000L, "p2" -> 1L)
    val (df1, d1) = m.run(tmpl, b1)
    assert(d1.action == Pbds.CaptureRun)
    val plain = resultSet(df1)

    val (df2, d2) = m.run(tmpl, b1)
    assert(d2.action == Pbds.SketchUse && d2.reusedFrom.contains(b1))
    assert(resultSet(df2) == plain)

    // compatible: tighter inner selection — strictly more selective
    val b3 = Map[String, Any]("p1" -> 3000L, "p2" -> 1L)
    val (df3, d3) = m.run(tmpl, b3)
    assert(d3.action == Pbds.SketchUse && d3.reusedFrom.contains(b1))
    val direct = ToSpark.compile(Algebra.bind(tmpl.op, b3), Map("cities" -> citiesDf))
    assert(resultSet(df3) == resultSet(direct))
  }

  test("a capturing run returns the answer its one execution computed") {
    val m = manager()
    val b = Map[String, Any]("p1" -> 2000L, "p2" -> 1L)
    val ((df, d), runJobs) = jobsDuring(m.run(tmpl, b))
    assert(d.action == Pbds.CaptureRun && runJobs > 0)
    assert(m.sketchesFor("ex7") == Seq(b)) // stored before anything is collected
    val (rows, collectJobs) = jobsDuring(resultSet(df))
    assert(collectJobs == 0)
    assert(rows == resultSet(ToSpark.compile(Algebra.bind(tmpl.op, b), Map("cities" -> citiesDf))))
  }

  test("eager: incompatible binding triggers a second capture") {
    val m = manager()
    val tight = Map[String, Any]("p1" -> 4000L, "p2" -> 1L)
    val loose = Map[String, Any]("p1" -> 2000L, "p2" -> 1L)
    assert(m.run(tmpl, tight)._2.action == Pbds.CaptureRun)
    assert(m.run(tmpl, loose)._2.action == Pbds.CaptureRun) // cannot reuse tighter sketch
    assert(m.sketchesFor("ex7").size == 2)
    // and now the tight one hits the loose sketch via reuse
    assert(m.run(tmpl, tight)._2.action == Pbds.SketchUse)
  }

  test("adaptive: waits for evidence before capturing") {
    val m = manager(Pbds.Adaptive(evidenceThreshold = 3))
    val b = Map[String, Any]("p1" -> 2000L, "p2" -> 1L)
    assert(m.run(tmpl, b)._2.action == Pbds.NoPs)
    assert(m.run(tmpl, b)._2.action == Pbds.NoPs)
    assert(m.run(tmpl, b)._2.action == Pbds.CaptureRun)
    assert(m.run(tmpl, b)._2.action == Pbds.SketchUse)
  }

  test("unsafe template never uses sketches") {
    // avg-based top-1 with sketch on popden is unsafe (Ex. 5)
    val m = new PbdsManager(spark, store,
      Map("cities" -> Seq(RangePartition("cities", "popden", TLong, popdenBounds.toIndexedSeq))),
      stats)
    val t = Template("q2", TopK(Seq(("avgden", false)), 1,
      Aggregate(Seq("state"), Seq(Agg(FAvg, Col("popden"), "avgden")),
        Select(Col("popden") > Param("p"), cities))))
    for (_ <- 1 to 3)
      assert(m.run(t, Map("p" -> 0L))._2.action == Pbds.NoPs)
  }

  test("a sketch covering every fragment is dropped and the template runs plain") {
    val fPopden = RangePartition("cities", "popden", TLong, popdenBounds.toIndexedSeq)
    val m = new PbdsManager(spark, store, Map("cities" -> Seq(fPopden)), stats)
    val b = Map[String, Any]("p1" -> 2000L, "p2" -> 0L) // every city is in the provenance
    val (df, d) = m.run(tmpl, b)
    assert(d.action == Pbds.CaptureRun)
    assert(m.sketchesFor("ex7").isEmpty)
    assert(resultSet(df) == resultSet(ToSpark.compile(Algebra.bind(tmpl.op, b), Map("cities" -> citiesDf))))
    assert(m.run(tmpl, b)._2.action == Pbds.NoPs)
  }

  test("safety is decided for the template, not for its first binding") {
    // σ_{x<$p ∨ c<5}(γ_{x; count(y)→c}(t)) with x ∈ [0, 100] and a sketch on
    // y: safe at p=200 (x < p always holds), unsafe at p=50. A sketch
    // captured at p=50 keeps only y ≤ 10, where group 60 counts 1 < 5 and
    // would wrongly appear.
    val schema = Seq("x" -> TLong, "y" -> TLong)
    val df = sparkDf(spark, schema, Seq(1L, 2L).map(Seq(10L, _)) ++
      Seq(3L, 20L, 21L, 22L, 23L, 24L).map(Seq(60L, _)))
    val t = TableRef("t", schema)
    val tmplP = Template("probe", Select(Col("x") < Param("p") || Col("c") < Lit(5L),
      Aggregate(Seq("x"), Seq(Agg(FCount, Col("y"), "c")), t)))
    val m = new PbdsManager(spark, new ZoneMapTableStore(Map.empty, Map("t" -> df)),
      Map("t" -> Seq(RangePartition("t", "y", TLong, Vector(10L, 30L, 50L, 70L)))),
      SafetyChecker.Stats(Map("x" -> (0L, 100L))))
    for (p <- Seq(200L, 50L, 50L)) {
      val b = Map[String, Any]("p" -> p)
      val (got, d) = m.run(tmplP, b)
      assert(d.action == Pbds.NoPs, s"p=$p")
      assert(resultSet(got) == resultSet(ToSpark.compile(Algebra.bind(tmplP.op, b), Map("t" -> df))))
    }
  }

  /** Top-k of the average density per state, over cities whose density
    * is at least `p`. With stats popden ∈ [2000, 7000], bindings p ≤ 2000
    * select every city, so the reuse checker matches them to each other.
    */
  private def topAvg(name: String, k: Int) = Template(name, TopK(Seq(("avgden", false), ("state", true)), k,
    Aggregate(Seq("state"), Seq(Agg(FAvg, Col("popden"), "avgden")),
      Select(Col("popden") >= Param("p"), cities))))

  private def plainRows(t: Template, b: Map[String, Any]): Set[String] =
    resultSet(ToSpark.compile(Algebra.bind(t.op, b), Map("cities" -> citiesDf)))

  test("an exact-binding top-5 hit over the 4 states is a SketchUse equal to plain") {
    val m = manager()
    val t = topAvg("top5", 5)
    val b = Map[String, Any]("p" -> 2000L)
    val (captured, d1) = m.run(t, b)
    assert(d1.action == Pbds.CaptureRun && resultSet(captured).size == 4)
    // τ's input holds 4 rows: the hit needs as many as its capture returned
    val (df, d) = m.run(t, b)
    assert(d.action == Pbds.SketchUse && d.reusedFrom.contains(b))
    assert(resultSet(df) == plainRows(t, b))
  }

  test("a top-k reuse hit from another binding with k rows is a SketchUse") {
    val m = manager()
    val t = topAvg("top2", 2)
    val b = Map[String, Any]("p" -> 2000L)
    assert(m.run(t, b)._2.action == Pbds.CaptureRun)
    val b2 = Map[String, Any]("p" -> 1500L)
    val (df, d) = m.run(t, b2)
    assert(d.action == Pbds.SketchUse && d.reusedFrom.contains(b))
    assert(resultSet(df) == plainRows(t, b2))
  }

  test("a top-k reuse hit from another binding short of k falls back to plain") {
    val m = manager()
    val t = topAvg("top5", 5)
    val b = Map[String, Any]("p" -> 2000L)
    assert(m.run(t, b)._2.action == Pbds.CaptureRun)
    // a reuse hit needs k = 5 rows, and only 4 states exist
    val b2 = Map[String, Any]("p" -> 1500L)
    val (df, d) = m.run(t, b2)
    assert(d.action == Pbds.Fallback && d.reusedFrom.contains(b))
    assert(resultSet(df) == plainRows(t, b2))
  }

  test("a top-k use runs one collect of the pruned plan in run and no job after it") {
    val m = manager()
    val t = topAvg("top2", 2)
    val b = Map[String, Any]("p" -> 2000L)
    assert(m.run(t, b)._2.action == Pbds.CaptureRun)
    val sketches = m.storedFor("top2").head.sketches
    val pruned = ToSpark.compile(Algebra.bind(t.op, b), store.catalog(spark, sketches))
    val (_, prunedJobs) = jobsDuring(pruned.collect())
    val ((df, d), runJobs) = jobsDuring(m.run(t, b))
    assert(d.action == Pbds.SketchUse)
    assert(runJobs == prunedJobs && runJobs > 0)
    val (rows, collectJobs) = jobsDuring(resultSet(df))
    assert(collectJobs == 0)
    assert(rows == plainRows(t, b))
  }

  test("a template with a top-k below its root runs plain and stores no sketch") {
    val m = manager()
    val top2 = topAvg("top2", 2).op
    val t = Template("nested", Select(Col("avgden") > Lit(4000L), top2))
    val b = Map[String, Any]("p" -> 2000L)
    for (_ <- 1 to 3) {
      val (df, d) = m.run(t, b)
      assert(d.action == Pbds.NoPs)
      assert(resultSet(df) == plainRows(t, b))
    }
    assert(m.sketchesFor("nested").isEmpty)
  }

  test("eviction drops a capture's row count together with its sketch") {
    val m = manager()
    val t = topAvg("top5", 5)
    // pairwise non-reusable bindings: each one captures
    val bs = (0 to Pbds.SketchesPerTemplate).map(i => Map[String, Any]("p" -> (2001L + i)))
    for (b <- bs) assert(m.run(t, b)._2.action == Pbds.CaptureRun, s"$b")
    val kept = m.storedFor("top5")
    assert(kept.map(_.binding) == bs.tail.reverse)
    assert(kept.forall(_.rows == 4))
    // the oldest binding lost its sketch and its row count: it captures
    // both again, and its next hit is checked against the new count
    assert(m.run(t, bs.head)._2.action == Pbds.CaptureRun)
    val newest = m.storedFor("top5").head
    assert(newest.binding == bs.head && newest.rows == 4)
    val (df, d) = m.run(t, bs.head)
    assert(d.action == Pbds.SketchUse && d.reusedFrom.contains(bs.head))
    assert(resultSet(df) == plainRows(t, bs.head))
  }

  test("top-k use succeeds when the sketch covers k rows") {
    val m = manager()
    val t = topAvg("top2", 2)
    val b = Map[String, Any]("p" -> 2000L)
    assert(m.run(t, b)._2.action == Pbds.CaptureRun)
    val (df, d) = m.run(t, b)
    assert(d.action == Pbds.SketchUse)
    assert(resultSet(df) == plainRows(t, b))
  }

  test("TPC-H-lite top-k queries: second runs equal plain, Q18's short input is a use") {
    val sf = 0.005
    val mem = TpchLite.catalog(spark, sf)
    val dir = Files.createTempDirectory("pbds-tpch").toString
    val used = TpchLite.queries.filter(w => Set("Q3", "Q5", "Q10", "Q15", "Q18")(w.name))
    val tables = used.flatMap(w => Algebra.tables(w.q)).distinctBy(_.name)
    val attrs = used.flatMap(_.sketchAttrs).distinct.groupMap(_._1)(_._2)
    val zoned = tables.map { t =>
      val zoneAttr = attrs.get(t.name).fold(t.schema.head._1)(_.head)
      t.name -> ZoneMapStore.write(mem(t.name), s"$dir/${t.name}", zoneAttr, 4)
    }.toMap
    val types = tables.flatMap(_.schema).toMap
    val candidates = attrs.map { case (t, as) =>
      t -> as.map(a => RangePartition.equiDepth(mem(t), t, a, types(a), 64))
    }
    val zStore = new ZoneMapTableStore(zoned)
    val m = new PbdsManager(spark, zStore, candidates, TpchLite.stats(sf))
    def rows(df: org.apache.spark.sql.DataFrame): Seq[String] = df.collect().map(_.toSeq.map {
      case d: Double => f"$d%.9g"
      case x         => String.valueOf(x)
    }.mkString("|")).sorted.toSeq
    for (w <- used) {
      val t = Template(w.name, w.q)
      assert(m.run(t, Map.empty)._2.action == Pbds.CaptureRun, w.name)
      val (df, d) = m.run(t, Map.empty)
      assert(rows(df) == rows(ToSpark.compile(w.q, zStore.catalog(spark))), w.name)
      info(s"${w.name}: ${d.action}, ${rows(df).size} rows")
      if (w.name == "Q18") {
        assert(d.action == Pbds.SketchUse && rows(df).size < 100)
        // more than `ZoneMapStore.MaxOrRanges` ranges: decoded by membership
        val sketches = m.storedFor(w.name).head.sketches
        assert(sketches.values.exists(s => s.partition.mergedRanges(s.fragments).size > ZoneMapStore.MaxOrRanges))
        val pruned = ToSpark.compile(w.q, zStore.catalog(spark, sketches)).queryExecution.optimizedPlan
        assert(pruned.exists(_.expressions.exists(_.exists(_.isInstanceOf[ScalaUDF]))))
      }
    }
  }
}
