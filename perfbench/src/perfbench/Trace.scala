package perfbench

import java.io.ByteArrayInputStream
import java.lang.instrument.{ClassFileTransformer, Instrumentation}
import java.security.ProtectionDomain

import scala.collection.mutable

import javassist.{ClassPool, LoaderClassPath}
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.{FileSourceScanExec, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.aggregate.BaseAggregateExec
import org.apache.spark.sql.execution.exchange.ReusedExchangeExec
import repro.core.CapturedSketch
import repro.storage.TableStore

/** One timed call: `parent` is the id of the enclosing span (0 at the top)
  * and `instance` the stream position it ran for (-1 outside the stream).
  */
final case class Span(id: Int, name: String, parent: Int, instance: Int,
                      startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder. Spans are opened and closed by the benchmark
  * around its own calls into the program and, under `TraceAgent`, around
  * the program's calls into `SafetyChecker.isSafe`, `ReuseChecker.canReuse`
  * and `ToSpark.compile`. Only the thread that called `start` records, so
  * Spark's executor threads never touch the stack. A recursive call of the
  * open span's own function is folded into it.
  */
object Tracer {
  private final class Open(val id: Int, val name: String, val startNs: Long, var depth: Int)

  @volatile private var owner: Thread = null
  private val stack = mutable.ArrayBuffer.empty[Open]
  private val done = mutable.ArrayBuffer.empty[Span]
  private var nextId = 0
  var instance: Int = -1

  def start(): Unit = { stack.clear(); owner = Thread.currentThread() }
  def stop(): Unit = owner = null
  def on: Boolean = owner ne null

  def enter(name: String): Unit = if (Thread.currentThread() eq owner) {
    if (stack.nonEmpty && stack.last.name == name) stack.last.depth += 1
    else { nextId += 1; stack += new Open(nextId, name, System.nanoTime(), 0) }
  }

  def exit(name: String): Unit = if ((Thread.currentThread() eq owner) && stack.nonEmpty) {
    val top = stack.last
    if (top.name == name) {
      if (top.depth > 0) top.depth -= 1
      else {
        stack.remove(stack.size - 1)
        val parent = if (stack.isEmpty) 0 else stack.last.id
        done += Span(top.id, name, parent, instance, top.startNs, System.nanoTime())
      }
    }
  }

  def span[T](name: String)(f: => T): T = { enter(name); try f finally exit(name) }

  /** Spans closed since the last call. */
  def drain(): IndexedSeq[Span] = { val r = done.toIndexedSeq; done.clear(); r }
}

/** Java agent (`-javaagent`, traced runs only) that wraps the program's
  * check and compile entry points in `Tracer` spans at class-load time, so
  * the calls `PbdsManager.run` makes are timed without changing the program.
  */
object TraceAgent {
  private val targets: Map[String, Seq[(String, String)]] = Map(
    "repro/core/SafetyChecker$" -> Seq("isSafe" -> "safety.isSafe"),
    "repro/core/ReuseChecker$" -> Seq("canReuse" -> "reuse.canReuse"),
    "repro/algebra/ToSpark$" -> Seq("compile" -> "algebra.compile"))

  def premain(args: String, inst: Instrumentation): Unit =
    inst.addTransformer(new ClassFileTransformer {
      override def transform(loader: ClassLoader, className: String, cls: Class[_],
                             pd: ProtectionDomain, bytes: Array[Byte]): Array[Byte] =
        targets.get(className) match {
          case None => null
          case Some(methods) =>
            try {
              val pool = new ClassPool(true)
              if (loader != null) pool.appendClassPath(new LoaderClassPath(loader))
              val cc = pool.makeClass(new ByteArrayInputStream(bytes))
              for ((m, spanName) <- methods; cm <- cc.getDeclaredMethods if cm.getName == m) {
                cm.insertBefore(s"""perfbench.Tracer.enter("$spanName");""")
                cm.insertAfter(s"""perfbench.Tracer.exit("$spanName");""", true)
              }
              val out = cc.toBytecode
              cc.detach()
              out
            } catch { case t: Throwable =>
              System.err.println(s"TraceAgent: cannot instrument $className: $t")
              null
            }
        }
    })
}

/** Delegating store that exists only in the benchmark: times the manager's
  * calls into the storage layer and records every sketch it is asked to use.
  */
final class TracingStore(inner: TableStore) extends TableStore {
  val sketchUses = mutable.ArrayBuffer.empty[CapturedSketch]
  def tableNames: Seq[String] = inner.tableNames
  def scan(spark: SparkSession, table: String): DataFrame =
    Tracer.span("storage.scan")(inner.scan(spark, table))
  def scanWithSketch(spark: SparkSession, table: String, sketch: CapturedSketch): DataFrame = {
    if (Tracer.on) sketchUses += sketch
    Tracer.span("storage.scanWithSketch")(inner.scanWithSketch(spark, table, sketch))
  }
}

/** Spark's own job and task metrics, grouped by the `perfbench.tag` local
  * property the benchmark sets before each call that may start jobs.
  */
final class ExecListener extends SparkListener {
  final class Counts { var jobs = 0L; var tasks = 0L; var cpuNs = 0L; var bytesRead = 0L; var shuffleBytes = 0L }
  private val stageTag = mutable.Map.empty[Int, String]
  private val byTag = mutable.Map.empty[String, Counts]
  private def of(tag: String) = byTag.getOrElseUpdate(tag, new Counts)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(ExecListener.Key))).getOrElse("other")
    of(tag).jobs += 1
    e.stageIds.foreach(stageTag(_) = tag)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val c = of(stageTag.getOrElse(e.stageId, "other"))
    c.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      c.cpuNs += m.executorCpuTime
      c.bytesRead += m.inputMetrics.bytesRead
      c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Counts per tag since the last call; waits for queued events first. */
  def drain(spark: SparkSession): Map[String, Counts] = {
    org.apache.spark.BenchAccess.waitForListeners(spark.sparkContext)
    synchronized { val r = byTag.toMap; byTag.clear(); stageTag.clear(); r }
  }
}

object ExecListener {
  val Key = "perfbench.tag"
  def tag[T](spark: SparkSession, t: String)(f: => T): T = {
    spark.sparkContext.setLocalProperty(Key, t)
    try f finally spark.sparkContext.setLocalProperty(Key, null)
  }
}

/** Reads an executed plan after its action has run. */
object Plans {
  /** Every node, descending into adaptive plans, query stages and
    * subqueries; reused exchanges are not descended (counted once).
    */
  def nodes(p: SparkPlan): Seq[SparkPlan] = p +: (p match {
    case a: AdaptiveSparkPlanExec => nodes(a.executedPlan)
    case q: QueryStageExec        => nodes(q.plan)
    case _: ReusedExchangeExec    => Nil
    case _                        => (p.children ++ p.subqueries).flatMap(nodes)
  })

  /** (files read, rows output, table) per Parquet scan. */
  def scans(p: SparkPlan, tableOfPath: String => String): Seq[(Long, Long, String)] =
    nodes(p).collect { case s: FileSourceScanExec =>
      val m = s.metrics
      val path = s.relation.location.rootPaths.headOption.map(_.toString).getOrElse("")
      (m.get("numFiles").map(_.value).getOrElse(0L),
       m.get("numOutputRows").map(_.value).getOrElse(0L),
       tableOfPath(path))
    }

  /** Lower-case names of the aggregate functions the plan computes. */
  def aggregateFunctions(p: SparkPlan): Set[String] =
    nodes(p).collect { case a: BaseAggregateExec =>
      a.aggregateExpressions.map(_.aggregateFunction.prettyName.toLowerCase)
    }.flatten.toSet
}
