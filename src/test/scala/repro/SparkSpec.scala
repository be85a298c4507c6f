package repro

import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Result of `f` and the number of Spark jobs started while it ran. A
    * marker job started afterwards drains the listener bus, which delivers
    * events in order.
    */
  protected def jobsDuring[T](f: => T): (T, Int) = {
    val started = new java.util.concurrent.ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        started.add(String.valueOf(Option(e.properties).map(_.getProperty("spark.job.description")).orNull))
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      val r = f
      sc.setJobDescription("marker")
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
      val deadline = System.nanoTime() + 30000000000L
      while (!started.contains("marker") && System.nanoTime() < deadline) Thread.sleep(10)
      assert(started.contains("marker"), "listener never saw the marker job")
      (r, started.asScala.takeWhile(_ != "marker").size)
    } finally sc.removeSparkListener(listener)
  }

  /** The operators of `df`'s executed plan in pre-order, read after an
    * action has run it: adaptive plans, query stages and subqueries are
    * descended into.
    */
  protected def executedOperators(df: DataFrame): Seq[SparkPlan] = {
    def nodes(p: SparkPlan): Seq[SparkPlan] = p +: (p match {
      case a: AdaptiveSparkPlanExec => nodes(a.executedPlan)
      case q: QueryStageExec        => nodes(q.plan)
      case _                        => (p.children ++ p.subqueries).flatMap(nodes)
    })
    nodes(df.queryExecution.executedPlan)
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
