package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import java.nio.file.Files

import scala.collection.mutable

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.SparkPlan
import repro.algebra._
import repro.core.{Pbds, PbdsManager, RangePartition}
import repro.storage.ZoneMapStore

/** PBDS benchmark: one workload, one seed, one closed-loop client.
  *
  * A run sets the workload up several times, warms up, then repeats
  * passes over one seeded instance stream while `--seconds` last. In a
  * pass every instance runs with plain execution (No-PS) and through a
  * fresh `PbdsManager`; the rows of both are collected and the PBDS answer
  * is checked against the No-PS answer. With `--trace 1` the passes
  * alternate untraced and traced, and per-layer metrics come from the
  * traced passes. The last stdout line is the result JSON.
  */
object Main {
  final case class Opts(workload: String = "", seed: Long = 1, seconds: Double = 10,
                        trace: Boolean = false, smoke: Boolean = false,
                        work: String = ".bench_build/perfbench", sha: String = "unknown")

  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case "--workload" :: v :: t => parse(t, o.copy(workload = v))
    case "--seed" :: v :: t     => parse(t, o.copy(seed = v.toLong))
    case "--seconds" :: v :: t  => parse(t, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: t    => parse(t, o.copy(trace = v == "1"))
    case "--smoke" :: t         => parse(t, o.copy(smoke = true))
    case "--work" :: v :: t     => parse(t, o.copy(work = v))
    case "--sha" :: v :: t      => parse(t, o.copy(sha = v))
    case Nil                    => o
    case x :: _                 => sys.error(s"unknown argument $x")
  }

  /** Rows of SynthData depend on the partition count of `spark.range`, so
    * the default parallelism is pinned apart from the core count.
    */
  val Parallelism = 4
  val ShufflePartitions = 8
  val SetupReps = 3

  def main(args: Array[String]): Unit = {
    phase("main")
    val o = parse(args.toList)
    val w = Workloads.byName(o.workload)
    val cores = math.min(Parallelism, Runtime.getRuntime.availableProcessors())
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName(s"perfbench-${w.name}")
      .config("spark.default.parallelism", Parallelism.toString)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      // Adaptive execution re-plans every query between stages; on these
      // small inputs that is a quarter of each query's time, and without
      // it the job counts do not depend on runtime statistics.
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", new File(o.work, "warehouse").getAbsolutePath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    phase("spark")
    try new Bench(spark, w, o, cores).run() finally spark.stop()
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Nearest-rank quantile; 0 for an empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) 0.0
    else { val s = xs.sorted; s(math.max(0, math.ceil(q * s.size).toInt - 1)) }

  def ms(t0: Long, t1: Long): Double = (t1 - t0) / 1e6

  /** Where a run's wall time goes, as seconds since the JVM started. */
  def phase(name: String): Unit =
    println(f"PHASE $name%-10s ${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%.2f s")
}

import Main._

/** The measurement of one instance in one pass. */
final case class Rec(i: Int, action: String, reused: Boolean, discarded: Boolean,
                     latencyMs: Double, planMs: Double, collectMs: Double,
                     noPsMs: Double, noPsCollectMs: Double,
                     scans: Seq[(Long, Long, String)])

final class Bench(spark: SparkSession, w: Workload, o: Opts, cores: Int) {
  private val sf = w.scale(o.smoke)
  private val stream = w.stream(o.seed, sf, o.smoke)
  private val dataDir = new File(o.work, s"data/${w.name}").getAbsolutePath
  private val listener = new ExecListener
  private val out = mutable.LinkedHashMap.empty[String, (Double, String, Int)]
  private val problems = mutable.ArrayBuffer.empty[String]
  private var attempted = 0
  private var failed = 0

  private def metric(name: String, v: Double, unit: String, n: Int = 1): Unit = {
    out(name) = (if (v.isNaN || v.isInfinite) 0.0 else v, unit, n)
    println(f"METRIC $name%-32s ${out(name)._1}%.6g $unit%s (n=$n)")
  }

  private def setting(k: String, v: Any): Unit = println(s"SETTING $k=$v")

  // ---------------------------------------------------------------- set-up

  private final case class Setup(env: Env, totalS: Double, datagenS: Double,
                                 writeS: Double, equiDepthS: Double)

  private def setupOnce(): Setup = {
    var datagen = 0L; var write = 0L; var equi = 0L
    val t0 = System.nanoTime()
    val zones = w.tables.map { t =>
      val a = System.nanoTime()
      val df = Tracer.span("setup.datagen") { val d = t.gen(spark, sf).cache(); d.count(); d }
      val b = System.nanoTime()
      val z = Tracer.span("storage.write")(ZoneMapStore.write(df, s"$dataDir/${t.name}", t.zoneAttr, t.zoneFiles))
      val c = System.nanoTime()
      df.unpersist(blocking = true)
      datagen += b - a; write += c - b
      t.name -> z
    }.toMap
    val candidates = w.tables.map { t =>
      val a = System.nanoTime()
      val ps = t.candidates.map { case (attr, tpe, n) =>
        Tracer.span("stats.equiDepth")(RangePartition.equiDepth(zones(t.name).scanAll(spark), t.name, attr, tpe, n))
      }
      equi += System.nanoTime() - a
      t.name -> ps
    }.toMap
    Setup(Env(zones, candidates), (System.nanoTime() - t0) / 1e9, datagen / 1e9, write / 1e9, equi / 1e9)
  }

  // ---------------------------------------------------------------- passes

  private def tableOfPath(p: String): String =
    w.tables.map(_.name).find(t => p.contains(s"$dataDir/$t")).getOrElse("?")

  private def aggFns(op: Op): Set[String] = (op match {
    case Aggregate(_, aggs, _) => aggs.map(_.fn.sql.toLowerCase).toSet
    case _                     => Set.empty[String]
  }) ++ op.children.flatMap(aggFns)

  private val planChecked = mutable.Set.empty[(String, String)]

  /** Defect-E guard: the executed plan must still compute every aggregate
    * function of the template, checked once per template and path. A plan
    * whose scans Catalyst removed (an empty sketch) has nothing to check.
    */
  private def checkAggregates(inst: Instance, path: String, plan: SparkPlan): Unit =
    if (!planChecked((inst.template.name, path)) && Plans.scans(plan, tableOfPath).nonEmpty) {
      planChecked += ((inst.template.name, path))
      val missing = aggFns(inst.template.op) -- Plans.aggregateFunctions(plan)
      if (missing.nonEmpty)
        problems += s"SELFCHECK ${inst.template.name} ($path): executed plan lacks ${missing.mkString(",")}"
    }

  private def fail(pass: Int, inst: Instance, why: String): Unit = {
    failed += 1
    println(s"FAIL pass=$pass ${inst.label}: $why")
  }

  private def actionName(a: Pbds.Action): String = a match {
    case Pbds.NoPs       => "plain"
    case Pbds.CaptureRun => "capture"
    case Pbds.SketchUse  => "use"
    case Pbds.Fallback   => "fallback"
  }

  private final case class PassOut(recs: Seq[Rec], spans: IndexedSeq[Span],
                                    exec: Map[String, ExecListener#Counts],
                                    sketchRanges: Seq[(Int, Double)], sketchesStored: Int) {
    def pbdsS: Double = recs.map(_.latencyMs).sum / 1e3
    def noPsS: Double = recs.map(_.noPsMs).sum / 1e3
  }

  /** One pass over `instances`. Each instance runs plain (No-PS) and through
    * the pass's manager; the order flips on odd positions so that neither
    * side always finds the other's caches warm. A fresh manager over a
    * fresh store makes every pass take the same decisions.
    */
  private def pass(pass: Int, env: Env, instances: IndexedSeq[Instance], traced: Boolean): PassOut = {
    val store = new TracingStore(env.freshStore)
    val mgr = new PbdsManager(spark, store, env.candidates, w.stats(sf))
    val plainCatalog = env.freshStore.catalog(spark)
    listener.drain(spark)
    Tracer.drain()
    val recs = mutable.ArrayBuffer.empty[Rec]

    def plain(i: Int, inst: Instance) = {
      val s0 = System.nanoTime()
      val df = ToSpark.compile(Algebra.bind(inst.template.op, inst.binding), plainCatalog)
      val plan = df.queryExecution.executedPlan
      val s1 = System.nanoTime()
      val rows = ExecListener.tag(spark, s"noPs:$i")(df.collect())
      val ans = Answers.normalise(rows)
      val s2 = System.nanoTime()
      checkAggregates(inst, "plain", plan)
      (ans, ms(s0, s2), ms(s1, s2))
    }

    def pbds(i: Int, inst: Instance) = {
      val t = inst.template
      if (traced) Tracer.start()
      Tracer.instance = i
      try {
        val before = mgr.sketchesFor(t.name).size
        val s0 = System.nanoTime()
        val (df, dec) = ExecListener.tag(spark, s"$i:run")(Tracer.span("pbds.run")(mgr.run(t, inst.binding)))
        val s1 = System.nanoTime()
        val plan = Tracer.span("algebra.plan")(df.queryExecution.executedPlan)
        val s2 = System.nanoTime()
        val rows = ExecListener.tag(spark, s"$i:collect")(Tracer.span("exec.collect")(df.collect()))
        val ans = Answers.normalise(rows)
        val s3 = System.nanoTime()
        val action = actionName(dec.action)
        if (action == "use") checkAggregates(inst, action, plan)
        (ans, Rec(i, action,
          reused = dec.action == Pbds.SketchUse && !dec.reusedFrom.contains(inst.binding),
          discarded = dec.action == Pbds.CaptureRun && mgr.sketchesFor(t.name).size == before,
          latencyMs = ms(s0, s3), planMs = ms(s1, s2), collectMs = ms(s2, s3),
          noPsMs = 0, noPsCollectMs = 0,
          scans = if (traced) Plans.scans(plan, tableOfPath) else Nil))
      } finally { Tracer.stop(); Tracer.instance = -1 }
    }

    for ((inst, i) <- instances.zipWithIndex) {
      attempted += 1
      try {
        val ((expected, noPsMs, noPsCollectMs), (ans, rec)) =
          if (i % 2 == 0) { val a = plain(i, inst); (a, pbds(i, inst)) }
          else { val b = pbds(i, inst); (plain(i, inst), b) }
        if (!Answers.sameMultiset(ans, expected))
          fail(pass, inst, s"${rec.action} answer differs from No-PS (${ans.size} vs ${expected.size} rows)")
        recs += rec.copy(noPsMs = noPsMs, noPsCollectMs = noPsCollectMs)
      } catch { case e: Exception => fail(pass, inst, s"exception: $e") }
    }
    val ranges = store.sketchUses.toSeq.map(s => (s.partition.mergedRanges(s.fragments).size, s.selectivity))
    PassOut(recs.toSeq, Tracer.drain(), listener.drain(spark), ranges,
      w.templates.map(t => mgr.sketchesFor(t.name).size).sum)
  }

  /** The first two blocks of the stream through a throwaway manager warm
    * the JVM and Spark's code caches for capture, use and plain runs. The
    * measured passes run, check and count these instances again.
    */
  private def warmUp(env: Env): Unit = {
    val mgr = new PbdsManager(spark, env.freshStore, env.candidates, w.stats(sf))
    for (inst <- stream.take(2 * w.templates.size))
      try mgr.run(inst.template, inst.binding)._1.collect()
      catch { case e: Exception => println(s"WARM-UP ${inst.label}: $e") }
  }

  // ---------------------------------------------------------------- metrics

  private def p50(recs: Seq[Rec], actions: Set[String])(f: Rec => Double): (Double, Int) = {
    val xs = recs.filter(r => actions(r.action)).map(f)
    (median(xs), xs.size)
  }

  private val Plain = Set("plain", "fallback")

  private def endToEnd(setupS: Seq[Double], passes: Seq[PassOut]): Unit = {
    val recs = passes.flatMap(_.recs)
    val lat = recs.map(_.latencyMs)
    val noPsLat = recs.map(_.noPsMs)
    val qps = recs.size / passes.map(_.pbdsS).sum
    val noPsQps = recs.size / passes.map(_.noPsS).sum
    val beyond90 = lat.size - math.ceil(0.9 * lat.size).toInt
    metric("setup_s", median(setupS), "s", setupS.size)
    metric("throughput_qps", qps, "1/s", recs.size)
    metric("latency_p50_ms", median(lat), "ms", lat.size)
    metric("latency_p90_ms", quantile(lat, 0.9), "ms", lat.size)
    println(s"NOTE latency_p90_ms has $beyond90 samples beyond it" +
      (if (beyond90 < 10) " (fewer than 10: a tail estimate, not a valid p90)" else ""))
    for ((name, acts) <- Seq("use" -> Set("use"), "capture" -> Set("capture"), "plain" -> Plain)) {
      val (v, n) = p50(recs, acts)(_.latencyMs)
      if (n > 0 || name != "plain") metric(s"${name}_latency_p50_ms", v, "ms", n)
      else println(s"NOTE plain_latency_p50_ms: no instance ran plain")
    }
    metric("noPs_throughput_qps", noPsQps, "1/s", noPsLat.size)
    metric("noPs_latency_p50_ms", median(noPsLat), "ms", noPsLat.size)
    metric("speedup_vs_noPs", qps / noPsQps, "x", recs.size)
    // PBDS time over the No-PS time of the same instances, each pair run
    // back to back: the paper's C_use / C_noPS and C_cap / C_noPS, free of
    // how fast the machine happened to be during the run.
    for (act <- Seq("use", "capture")) {
      val rs = recs.filter(_.action == act)
      metric(s"${act}_vs_noPs", rs.map(_.latencyMs).sum / rs.map(_.noPsMs).sum, "x", rs.size)
    }
    metric("failed_share", failed.toDouble / math.max(1, attempted), "share", attempted)
    // Spark frees broadcast and shuffle blocks on a cleaner thread once a
    // GC has found them unreachable: collect, let it run, collect again.
    System.gc(); Thread.sleep(500); System.gc()
    metric("heap_used_mb", ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0, "MB")
  }

  /** Per-layer metrics of one traced pass; counts first, then times. */
  private def layerCounts(p: PassOut): Seq[(String, Double, String)] = {
    val recs = p.recs
    def count(a: String) = recs.count(_.action == a).toDouble
    def named(n: String) = p.spans.filter(_.name == n)
    val reuseCalls = named("reuse.canReuse").size
    val reuseHits = recs.count(_.reused)
    val actionOf = recs.map(r => r.i -> r.action).toMap
    def jobsInRun(a: String) = p.exec.collect { case (tag, c) if tag.endsWith(":run") &&
      actionOf.get(tag.takeWhile(_ != ':').toInt).contains(a) => c.jobs }.sum.toDouble
    val useScans = recs.filter(_.action == "use").flatMap(_.scans)
    Seq(
      ("pbds.actions.use", count("use"), "count"),
      ("pbds.actions.capture", count("capture"), "count"),
      ("pbds.actions.plain", count("plain"), "count"),
      ("pbds.actions.fallback", count("fallback"), "count"),
      ("pbds.reuse_hits", reuseHits.toDouble, "count"),
      ("pbds.sketches_stored", p.sketchesStored.toDouble, "count"),
      ("pbds.captures_discarded", recs.count(_.discarded).toDouble, "count"),
      ("pbds.jobs_in_run.use", jobsInRun("use"), "count"),
      ("pbds.jobs_in_run.capture", jobsInRun("capture"), "count"),
      ("safety.calls", named("safety.isSafe").size.toDouble, "count"),
      ("reuse.calls", reuseCalls.toDouble, "count"),
      ("reuse.calls_per_query", reuseCalls.toDouble / math.max(1, recs.size), "calls/query"),
      ("reuse.hit_ratio", if (reuseCalls == 0) 0.0 else reuseHits.toDouble / reuseCalls, "share"),
      ("use.sketch_ranges_p50", median(p.sketchRanges.map(_._1.toDouble)), "count"),
      ("use.sketch_ranges_max", if (p.sketchRanges.isEmpty) 0.0 else p.sketchRanges.map(_._1).max.toDouble, "count"),
      ("storage.files_read", useScans.map(_._1).sum.toDouble, "count"),
      ("storage.rows_scanned.use", useScans.map(_._2).sum.toDouble, "count"),
    )
  }

  private def layerTimes(p: PassOut): Seq[(String, Double, String)] = {
    val recs = p.recs
    val actionOf = recs.map(r => r.i -> r.action).toMap
    val children = p.spans.groupBy(_.parent)
    def kids(s: Span) = children.getOrElse(s.id, Seq.empty)
    val runs = p.spans.filter(s => s.name == "pbds.run" && s.parent == 0)
    def runOf(acts: Set[String]) = runs.filter(s => actionOf.get(s.instance).exists(acts))
    def runSelf(acts: Set[String]) = median(runOf(acts).map(s =>
      s.ms - kids(s).filter(_.name.startsWith("storage.")).map(_.ms).sum))
    def planMs(acts: Set[String]) = median(recs.filter(r => acts(r.action)).map { r =>
      r.planMs + runs.filter(_.instance == r.i).flatMap(kids).filter(_.name == "algebra.compile").map(_.ms).sum })
    def total(n: String) = p.spans.filter(_.name == n).map(_.ms).sum
    def execOf(acts: Set[String]) = p.exec.collect { case (tag, c) if !tag.startsWith("noPs") &&
      tag.contains(':') && actionOf.get(tag.takeWhile(_ != ':').toIntOption.getOrElse(-1)).exists(acts) => c }
    val pbdsExec = p.exec.collect { case (tag, c) if !tag.startsWith("noPs") => c }
    val useScans = recs.filter(_.action == "use").flatMap(_.scans)
    val zoneFiles = w.tables.map(t => t.name -> t.zoneFiles).toMap
    val filesTotal = useScans.map(s => zoneFiles.getOrElse(s._3, 0)).sum
    Seq(
      ("pbds.run_ms.use", runSelf(Set("use")), "ms"),
      ("pbds.run_ms.capture", runSelf(Set("capture")), "ms"),
      ("pbds.run_ms.plain", runSelf(Plain), "ms"),
      ("exec.task_cpu_s.capture", execOf(Set("capture")).map(_.cpuNs).sum / 1e9, "s"),
      ("safety.check_ms", total("safety.isSafe"), "ms"),
      ("reuse.check_ms", total("reuse.canReuse"), "ms"),
      ("use.sketch_selectivity_p50", median(p.sketchRanges.map(_._2)), "share"),
      ("storage.scan_with_sketch_ms", total("storage.scanWithSketch"), "ms"),
      ("algebra.plan_ms.use", planMs(Set("use")), "ms"),
      ("algebra.plan_ms.plain", planMs(Plain), "ms"),
      ("storage.files_read_share", if (filesTotal == 0) 0.0 else useScans.map(_._1).sum.toDouble / filesTotal, "share"),
      ("exec.bytes_read", pbdsExec.map(_.bytesRead).sum.toDouble, "bytes"),
      ("exec.collect_ms.use", median(recs.filter(_.action == "use").map(_.collectMs)), "ms"),
      ("exec.collect_ms.capture", median(recs.filter(_.action == "capture").map(_.collectMs)), "ms"),
      ("exec.collect_ms.plain", median(recs.filter(r => Plain(r.action)).map(_.collectMs)), "ms"),
      ("exec.jobs", pbdsExec.map(_.jobs).sum.toDouble, "count"),
      ("exec.tasks", pbdsExec.map(_.tasks).sum.toDouble, "count"),
      ("exec.shuffle_bytes", pbdsExec.map(_.shuffleBytes).sum.toDouble, "bytes"),
    )
  }

  /** Exact-count check: the counts of every traced pass must agree, and
    * agree with an earlier run of the same workload, seed and settings.
    */
  private def countsRepeat(counts: Seq[Seq[(String, Double, String)]],
                           decisions: Seq[Seq[(String, Double, String)]], key: String): Boolean = {
    val asText = counts.map(_.map { case (n, v, _) => s"$n=$v" }.mkString("\n"))
    var same = asText.distinct.size == 1 && decisions.distinct.size == 1
    if (!same) problems += "FLAG per-layer counts differ between passes of this run"
    val f = new File(o.work, s"counts/$key.txt")
    if (f.exists()) {
      if (new String(Files.readAllBytes(f.toPath)) != asText.head) {
        same = false
        problems += s"FLAG per-layer counts differ from the earlier run recorded in $f"
      }
    } else {
      f.getParentFile.mkdirs()
      Files.write(f.toPath, asText.head.getBytes)
    }
    same
  }

  private def writeSpans(passes: Seq[(Int, PassOut)]): File = {
    val f = new File(o.work, s"trace/spans-${w.name}-seed${o.seed}.tsv")
    f.getParentFile.mkdirs()
    val pw = new PrintWriter(f)
    try {
      pw.println("pass\tid\tname\tparent\tinstance\tstart_ns\tend_ns")
      for ((pass, p) <- passes; s <- p.spans)
        pw.println(s"$pass\t${s.id}\t${s.name}\t${s.parent}\t${s.instance}\t${s.startNs}\t${s.endNs}")
    } finally pw.close()
    f
  }

  // ---------------------------------------------------------------- run

  def run(): Unit = {
    spark.sparkContext.addSparkListener(listener)
    val fragCounts = w.tables.flatMap(t => t.candidates.map { case (a, _, n) => s"${t.name}.$a:$n" })
    setting("workload", w.name); setting("seed", o.seed); setting("git_sha", o.sha)
    setting("master", s"local[$cores]"); setting("spark.default.parallelism", Parallelism)
    setting("spark.sql.shuffle.partitions", ShufflePartitions)
    setting("spark.sql.adaptive.enabled", spark.conf.get("spark.sql.adaptive.enabled"))
    setting("scale_factor", sf); setting("fragment_counts", fragCounts.mkString(","))
    setting("zone_files", w.tables.map(t => s"${t.name}:${t.zoneFiles}").mkString(","))
    setting("stream_length", stream.size); setting("run_seconds", o.seconds)
    setting("trace", o.trace); setting("smoke", o.smoke)

    val setupReps = if (o.smoke) 1 else SetupReps
    Tracer.start()
    val setups = (1 to setupReps).map(_ => setupOnce())
    Tracer.stop()
    val setupSpans = Tracer.drain()
    val env = setups.last.env
    phase("setup")

    warmUp(env)
    phase("warm-up")
    val minPasses = if (o.trace) 2 else 1
    val passes = mutable.ArrayBuffer.empty[(Boolean, PassOut)]
    val t0 = System.nanoTime()
    var last = 0.0
    while (passes.size < minPasses ||
           (!o.smoke && (System.nanoTime() - t0) / 1e9 + last <= o.seconds)) {
      val traced = o.trace && passes.size % 2 == 1
      val a = System.nanoTime()
      val p = pass(passes.size, env, stream, traced)
      last = (System.nanoTime() - a) / 1e9
      println(f"PASS ${passes.size} traced=$traced ${p.recs.size} instances: PBDS ${p.pbdsS}%.3f s, No-PS ${p.noPsS}%.3f s")
      passes += ((traced, p))
    }

    phase("passes")
    for ((t, rs) <- passes.head._2.recs.groupBy(r => stream(r.i).template.name).toSeq.sortBy(_._1))
      println(s"MIX $t " + Seq("use", "capture", "plain", "fallback").map(a => s"$a=${rs.count(_.action == a)}").mkString(" "))
    if (!o.trace) endToEnd(setups.map(_.totalS), passes.map(_._2).toSeq)
    else {
      val traced = passes.filter(_._1).map(_._2).toSeq
      val untraced = passes.filterNot(_._1).map(_._2).toSeq
      metric("setup.datagen_s", median(setups.map(_.datagenS)), "s", setups.size)
      metric("storage.write_s", median(setups.map(_.writeS)), "s", setups.size)
      metric("stats.equidepth_s", median(setups.map(_.equiDepthS)), "s", setups.size)
      val counts = traced.map(layerCounts)
      for ((n, v, u) <- counts.head) metric(n, v, u, traced.size)
      val times = traced.map(layerTimes)
      for (j <- times.head.indices) {
        val (n, _, u) = times.head(j)
        metric(n, median(times.map(_(j)._2)), u, traced.size)
      }
      val noPsCollect = passes.flatMap(_._2.recs.map(_.noPsCollectMs)).toSeq
      metric("exec.collect_ms.noPs", median(noPsCollect), "ms", noPsCollect.size)
      def qps(ps: Seq[PassOut]) = median(ps.map(p => p.recs.size / p.pbdsS))
      val (tq, uq) = (qps(traced), qps(untraced))
      metric("trace.throughput_qps.traced", tq, "1/s", traced.size)
      metric("trace.throughput_qps.untraced", uq, "1/s", untraced.size)
      metric("trace.overhead_share", 1 - tq / uq, "share", traced.size)
      val key = s"${w.name}-seed${o.seed}-sf$sf-k$cores-n${stream.size}-${o.sha}"
      // the first seven counts come from the decisions, known in every pass
      val decisions = passes.map(p => layerCounts(p._2).take(7)).toSeq
      metric("trace.counts_repeat", if (countsRepeat(counts, decisions, key)) 1 else 0, "bool")
      val spansFile = writeSpans(passes.zipWithIndex.collect { case ((true, p), i) => (i, p) }.toSeq :+
        ((-1, PassOut(Nil, setupSpans, Map.empty, Nil, 0))))
      println(s"SPANS ${spansFile.getPath}")
    }

    val expected = if (o.trace) Metrics.perLayer else Metrics.endToEnd
    val missing = expected.filterNot(out.contains)
    if (missing.nonEmpty) problems += s"SELFCHECK metrics not emitted: ${missing.mkString(", ")}"
    problems.foreach(println)
    println(f"FAILED $failed of $attempted instances (failed_share ${failed.toDouble / math.max(1, attempted)}%.4f)")
    val selfOk = !problems.exists(_.startsWith("SELFCHECK"))
    val metricsJson = out.collect { case (n, (v, u, _)) if expected.contains(n) =>
      s""""$n": {"value": $v, "unit": "$u"}""" }.mkString(", ")
    phase("end")
    println(s"""{"correct": ${failed == 0 && selfOk}, "attempted": $attempted, "failed": $failed, "metrics": {$metricsJson}}""")
  }
}

/** Every metric the benchmark must emit, by mode. */
object Metrics {
  val endToEnd: Seq[String] = Seq("setup_s", "throughput_qps", "latency_p50_ms", "latency_p90_ms",
    "use_latency_p50_ms", "capture_latency_p50_ms", "noPs_throughput_qps", "noPs_latency_p50_ms",
    "speedup_vs_noPs", "use_vs_noPs", "capture_vs_noPs", "failed_share", "heap_used_mb")

  val perLayer: Seq[String] = Seq("setup.datagen_s", "storage.write_s", "stats.equidepth_s",
    "pbds.run_ms.use", "pbds.run_ms.capture", "pbds.run_ms.plain",
    "pbds.jobs_in_run.use", "pbds.jobs_in_run.capture", "exec.task_cpu_s.capture",
    "pbds.actions.use", "pbds.actions.capture", "pbds.actions.plain", "pbds.actions.fallback",
    "pbds.reuse_hits", "pbds.sketches_stored", "pbds.captures_discarded",
    "safety.calls", "safety.check_ms", "reuse.calls", "reuse.check_ms", "reuse.calls_per_query",
    "reuse.hit_ratio", "use.sketch_ranges_p50", "use.sketch_ranges_max", "use.sketch_selectivity_p50",
    "storage.scan_with_sketch_ms", "algebra.plan_ms.use", "algebra.plan_ms.plain",
    "storage.files_read_share", "storage.files_read", "storage.rows_scanned.use", "exec.bytes_read",
    "exec.collect_ms.use", "exec.collect_ms.capture", "exec.collect_ms.plain", "exec.collect_ms.noPs",
    "exec.jobs", "exec.tasks", "exec.shuffle_bytes",
    "trace.throughput_qps.traced", "trace.throughput_qps.untraced", "trace.overhead_share",
    "trace.counts_repeat")
}
