package repro.bench

import org.apache.spark.sql.functions.{col, sum, udf}
import repro.SparkSpec

class BenchUtilSpec extends SparkSpec {

  test("run evaluates every aggregate of the plan") {
    val calls = spark.sparkContext.longAccumulator("benchUtilCalls")
    val f = udf((v: Long) => { calls.add(1); v })
    val df = spark.range(1000).withColumn("g", col("id") % 7)
      .groupBy("g").agg(sum(f(col("id"))).as("s"))
    BenchUtil.run(df)
    assert(calls.value == 1000)
  }
}
