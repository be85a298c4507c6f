package org.apache.spark

/** The one Spark-internal call the benchmark needs: listener events are
  * delivered asynchronously, so per-pass counts are read only after the
  * bus has delivered everything queued so far.
  */
object BenchAccess {
  def waitForListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
