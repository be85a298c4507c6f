package repro.bench

import java.nio.file.Files

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, sum, udf}
import repro.SparkSpec
import repro.algebra.{Algebra, ToSpark}
import repro.core.{Capture, RangePartition}
import repro.storage.{ZoneMapStore, ZoneMapTableStore}
import repro.workloads.TpchLite

class BenchUtilSpec extends SparkSpec {

  test("run evaluates every aggregate of the plan") {
    val calls = spark.sparkContext.longAccumulator("benchUtilCalls")
    val f = udf((v: Long) => { calls.add(1); v })
    val df = spark.range(1000).withColumn("g", col("id") % 7)
      .groupBy("g").agg(sum(f(col("id"))).as("s"))
    BenchUtil.run(df)
    assert(calls.value == 1000)
  }

  test("measure captures what Capture.capture does and its use query returns the No-PS rows") {
    // Q18 sums integral quantities, so its rows compare exactly
    val w = TpchLite.queries.find(_.name == "Q18").get
    val mem = TpchLite.catalog(spark, 0.005)
    val dir = Files.createTempDirectory("measure").toString
    val zoned = Algebra.tables(w.q).map { t =>
      val attr = w.sketchAttrs.getOrElse(t.name, t.schema.head._1)
      t.name -> ZoneMapStore.write(mem(t.name), s"$dir/${t.name}", attr, 4)
    }.toMap
    val types = Algebra.baseTypes(w.q)
    val parts = w.sketchAttrs.map { case (t, a) =>
      RangePartition.equiDepth(mem(t), t, a, types(a), 16)
    }.toSeq
    def rows(df: DataFrame): Seq[String] = df.collect().map(_.toString).sorted.toSeq
    for ((name, store) <- Seq("mem" -> new ZoneMapTableStore(Map.empty, mem),
                              "zoned" -> new ZoneMapTableStore(zoned))) {
      val (_, Seq(m)) = BenchUtil.measure(spark, store, w.q, w.sketchAttrs, mem, Seq(16), reps = 1)
      assert(m.nFrags == 16)
      assert(m.sketches == Capture.capture(w.q, parts, store.catalog(spark)), s"store=$name")
      assert(m.sketches.values.forall(_.selectivity < 1.0), s"store=$name")
      val noPs = rows(ToSpark.compile(w.q, store.catalog(spark)))
      assert(noPs.nonEmpty)
      assert(rows(ToSpark.compile(w.q, store.catalog(spark, m.sketches))) == noPs, s"store=$name")
    }
  }
}
