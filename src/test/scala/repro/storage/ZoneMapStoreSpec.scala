package repro.storage

import java.nio.file.Files

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.ScalaUDF
import org.apache.spark.sql.execution.FileSourceScanExec
import repro.{Fixtures, SparkSpec, SynthData}
import repro.algebra._
import repro.core._

class ZoneMapStoreSpec extends SparkSpec {

  private def tmp(): String = Files.createTempDirectory("zms").toString

  private lazy val citiesDf = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
  private lazy val citiesStore =
    new ZoneMapTableStore(Map("cities" -> ZoneMapStore.write(citiesDf, tmp(), "popden", 2)))
  private val fPopden = RangePartition("cities", "popden", TLong, Fixtures.popdenBounds.toIndexedSeq)

  private lazy val keys = SynthData.uniformKeys(spark, 20000, 1000000, seed = 9)
  private lazy val keysStore = ZoneMapStore.write(keys, tmp(), "k", 8)

  private def sortedKeys(df: DataFrame): Seq[Long] =
    df.select("k").collect().map(_.getLong(0)).sorted.toSeq

  /** Files a sketch scan of `s` opens: those overlapping the merged ranges. */
  private def filesRead(s: ZoneMapStore, sk: CapturedSketch): Int =
    s.matchingFiles(sk.partition.mergedRanges(sk.fragments)).size

  private def hasUdf(df: DataFrame): Boolean =
    df.queryExecution.optimizedPlan.exists(_.expressions.exists(_.exists(_.isInstanceOf[ScalaUDF])))

  test("write + load builds a sorted zone map covering all rows") {
    val df = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
    val s = ZoneMapStore.write(df, tmp(), "popden", 3)
    assert(s.totalRows == 7)
    assert(s.nFiles >= 2 && s.nFiles <= 3)
    assert(s.zones.sliding(2).forall {
      case Seq(a, b) => Lineage.compareAny(a.min, b.min) <= 0
      case _         => true
    })
    assert(s.scanAll(spark).count() == 7)
  }

  test("prunedScan returns exactly the sketch-covered rows") {
    val df = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
    val s = ZoneMapStore.write(df, tmp(), "popden", 3)
    val p = RangePartition("cities", "popden", TLong, Fixtures.popdenBounds.toIndexedSeq)
    val sk = CapturedSketch(p, BitSketch.fromFragments(2, Seq(1))) // g2 = (4000, ∞)
    assert(s.prunedScan(spark, sk).count() == 4) // popden 4200, 6000, 5000, 7000
  }

  test("empty sketch reads no files; full sketch reads all") {
    val df = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
    val s = ZoneMapStore.write(df, tmp(), "popden", 2)
    val p = RangePartition("cities", "popden", TLong, Fixtures.popdenBounds.toIndexedSeq)
    val e = CapturedSketch(p, BitSketch.empty(2))
    assert(s.prunedScan(spark, e).count() == 0 && filesRead(s, e) == 0)
    val f = CapturedSketch(p, BitSketch.full(2))
    assert(s.prunedScan(spark, f).count() == 7 && filesRead(s, f) == s.nFiles)
  }

  test("file pruning actually skips files on a clustered table") {
    val df = SynthData.uniformKeys(spark, 20000, 1000000, seed = 9)
    val dir = tmp()
    val s = ZoneMapStore.write(df, dir, "k", 8)
    val p = RangePartition.equiDepth(s.scanAll(spark), "t", "k", TLong, 16)
    val sk = CapturedSketch(p, BitSketch.fromFragments(p.nFragments, Seq(0, 1)))
    val read = filesRead(s, sk)
    assert(read < s.nFiles, s"expected pruning: read $read of ${s.nFiles}")
    val expected = s.scanAll(spark).filter(sk.toColumn).count()
    assert(s.prunedScan(spark, sk).count() == expected)
  }

  test("mismatched sketch attribute is rejected") {
    val df = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
    val s = ZoneMapStore.write(df, tmp(), "popden", 2)
    val p = RangePartition("cities", "state", TString, Fixtures.stateBounds.toIndexedSeq)
    intercept[IllegalArgumentException](
      s.prunedScan(spark, CapturedSketch(p, BitSketch.full(4))))
  }

  test("TableStore implementations agree on sketch-restricted contents") {
    val df = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
    val zms = ZoneMapStore.write(df, tmp(), "popden", 3)
    val p = RangePartition("cities", "popden", TLong, Fixtures.popdenBounds.toIndexedSeq)
    val sk = CapturedSketch(p, BitSketch.fromFragments(2, Seq(1)))
    val mem  = new ZoneMapTableStore(Map.empty, Map("cities" -> df))
    val disk = new ZoneMapTableStore(Map("cities" -> zms))
    val expected = df.filter(sk.toColumn).collect().map(_.getLong(0)).sorted.toSeq
    for ((name, st) <- Seq("mem" -> mem, "disk" -> disk)) {
      val got = st.catalog(spark, Map("cities" -> sk))("cities")
        .select("popden").collect().map(_.getLong(0)).sorted.toSeq
      assert(got == expected, s"store=$name")
    }
  }

  test("scanWithSketch restricts a zone-mapped scan to the sketch's rows") {
    val sk = CapturedSketch(fPopden, BitSketch.fromFragments(2, Seq(1)))
    assert(citiesStore.scanWithSketch(spark, "cities", sk).count() == 4) // popden > 4000
  }

  test("scanWithSketch with an empty sketch yields an empty scan") {
    val sk = CapturedSketch(fPopden, BitSketch.empty(2))
    assert(citiesStore.scanWithSketch(spark, "cities", sk).count() == 0)
  }

  test("scanWithSketch with a full sketch preserves per-state counts") {
    val sk = CapturedSketch(fPopden, BitSketch.full(2))
    val got = citiesStore.scanWithSketch(spark, "cities", sk).groupBy("state").count()
      .collect().map(r => (r.getString(0), r.getLong(1))).toMap
    assert(got == Map("AK" -> 1L, "CA" -> 2L, "NY" -> 2L, "TX" -> 2L))
  }

  test("prunedScan pushes the decoded ranges into the Parquet scan") {
    val p = RangePartition.equiDepth(keysStore.scanAll(spark), "t", "k", TLong, 16)
    val sk = CapturedSketch(p, BitSketch.fromFragments(p.nFragments, Seq(0, 1, 5)))
    val scans = keysStore.prunedScan(spark, sk).queryExecution.executedPlan
      .collect { case s: FileSourceScanExec => s }
    assert(scans.size == 1)
    val pushed = scans.head.metadata("PushedFilters")
    for (f <- Seq(s"LessThanOrEqual(k,${p.bounds(1)})", s"GreaterThan(k,${p.bounds(4)})",
                  s"LessThanOrEqual(k,${p.bounds(5)})"))
      assert(pushed.contains(f), s"$f not in $pushed")
  }

  test("scan cache keys on the partition, not only the fragment bits") {
    val zms = ZoneMapStore.write(citiesDf, tmp(), "popden", 2)
    val bits = BitSketch.fromFragments(2, Seq(1))
    val above4000 = CapturedSketch(fPopden, bits)
    val above6500 = CapturedSketch(RangePartition("cities", "popden", TLong, Vector(6500L)), bits)
    assert(zms.prunedScan(spark, above4000).count() == 4)
    assert(zms.prunedScan(spark, above6500).count() == 1) // popden 7000
  }

  test("scan cache stays bounded and every scan returns its own rows") {
    val zms = ZoneMapStore.write(citiesDf, tmp(), "popden", 2)
    val popdens = Fixtures.citiesRows.map(_.head.asInstanceOf[Long]).sorted
    val thresholds = (0 to ZoneMapStore.ScanCacheEntries + 5).map(i => 1990L + 80L * i)
    // the last scan repeats the first, whose entry has been evicted by then
    for (b <- thresholds :+ thresholds.head) {
      val above = CapturedSketch(RangePartition("cities", "popden", TLong, Vector(b)),
        BitSketch.fromFragments(2, Seq(1)))
      val got = zms.prunedScan(spark, above).select("popden").collect().map(_.getLong(0)).sorted.toSeq
      assert(got == popdens.filter(_ > b), s"popden > $b")
      assert(zms.cachedScans <= ZoneMapStore.ScanCacheEntries)
    }
  }

  // Named for the earlier cutoff of 512 ranges; both ends it checks hold
  // under `ZoneMapStore.MaxOrRanges` too: a few ranges take the OR, more than
  // 512 the membership UDF. The next test checks the boundary itself.
  test("sketch.filter: OR of ranges up to 512 ranges, membership UDF beyond") {
    val p = RangePartition.equiDepth(keysStore.scanAll(spark), "t", "k", TLong, 2000)
    val many = CapturedSketch(p, BitSketch.fromFragments(p.nFragments, 0 until p.nFragments by 2))
    val few = CapturedSketch(p, BitSketch.fromFragments(p.nFragments, Seq(0, 1, 5)))
    assert(p.mergedRanges(many.fragments).size > 512)
    assert(p.mergedRanges(few.fragments).size <= ZoneMapStore.MaxOrRanges)
    val stores = Seq("zoned" -> new ZoneMapTableStore(Map("t" -> keysStore)),
                     "mem" -> new ZoneMapTableStore(Map.empty, extra = Map("t" -> keys)))
    for ((name, st) <- stores; sk <- Seq(many, few)) {
      val scanned = st.scanWithSketch(spark, "t", sk)
      assert(sortedKeys(scanned) == sortedKeys(keys.filter(sk.toColumn)), s"store=$name")
      assert(hasUdf(scanned) == (sk eq many), s"store=$name")
    }
  }

  test("sketch.filter: OR of up to 8 merged ranges, pushed down; membership UDF beyond") {
    val p = RangePartition.equiDepth(keysStore.scanAll(spark), "t", "k", TLong, 64)
    val eight = CapturedSketch(p, BitSketch.fromFragments(p.nFragments, 0 until 16 by 2))
    val nine = CapturedSketch(p, BitSketch.fromFragments(p.nFragments, 0 until 18 by 2))
    assert(p.mergedRanges(eight.fragments).size == ZoneMapStore.MaxOrRanges)
    assert(p.mergedRanges(nine.fragments).size == ZoneMapStore.MaxOrRanges + 1)
    val stores = Seq("zoned" -> new ZoneMapTableStore(Map("t" -> keysStore)),
                     "mem" -> new ZoneMapTableStore(Map.empty, extra = Map("t" -> keys)))
    for ((name, st) <- stores; sk <- Seq(eight, nine)) {
      val scanned = st.scanWithSketch(spark, "t", sk)
      assert(sortedKeys(scanned) == sortedKeys(keys.filter(sk.toColumn)), s"store=$name")
      assert(hasUdf(scanned) == (sk eq nine), s"store=$name")
    }
    val pushed = keysStore.prunedScan(spark, eight).queryExecution.executedPlan
      .collect { case s: FileSourceScanExec => s.metadata("PushedFilters") }.mkString
    for (i <- 0 until 16 by 2) {
      assert(pushed.contains(s"LessThanOrEqual(k,${p.bounds(i)})"), pushed)
      if (i > 0) assert(pushed.contains(s"GreaterThan(k,${p.bounds(i - 1)})"), pushed)
    }
  }

  test("scans of a store rebuilt from its zones start no job and keep schema and rows") {
    val crimes = SynthData.crimes(spark, sf = 0.001)
    val dir = tmp()
    val written = ZoneMapStore.write(crimes, dir, "cr_id", 4)
    def rebuilt = new ZoneMapStore(written.path, written.attr, written.zones)
    val inferred = spark.read.parquet(dir)
    assert(ZoneMapStore.footerSchema(spark, written.zones.head.path).exists(!_("cr_id").nullable))
    assert(inferred.schema.forall(_.nullable))
    val p = RangePartition.equiDepth(crimes, "crimes", "cr_id", TLong, 16)
    val sk = CapturedSketch(p, BitSketch.fromFragments(p.nFragments, Seq(2, 3, 9)))
    val (all, allJobs) = jobsDuring(rebuilt.scanAll(spark))
    val (pruned, prunedJobs) = jobsDuring(rebuilt.prunedScan(spark, sk))
    assert(allJobs == 0 && prunedJobs == 0, s"scanAll $allJobs jobs, prunedScan $prunedJobs jobs")
    assert(all.schema == inferred.schema && pruned.schema == inferred.schema)
    def rows(df: DataFrame): Seq[String] = df.collect().map(_.toString).sorted.toSeq
    assert(rows(all) == rows(inferred))
    assert(rows(pruned) == rows(inferred.filter(sk.toColumn)))
  }

  test("a pruned scan of more than 32 files starts no job and reads only those files") {
    val store = ZoneMapStore.write(SynthData.uniformKeys(spark, 4000, 1000000, seed = 5), tmp(), "k", 40)
    assert(store.nFiles == 40)
    // One fragment per file: fragment i ends at zone i's max.
    val p = RangePartition("t", "k", TLong, store.zones.init.map(_.max).toVector)
    val sk = CapturedSketch(p, BitSketch.fromFragments(40, (0 until 40).filter(_ % 6 != 0)))
    val files = store.matchingFiles(p.mergedRanges(sk.fragments))
    assert(files.size == 33)
    val rebuilt = new ZoneMapStore(store.path, store.attr, store.zones)
    val (scan, jobs) = jobsDuring(rebuilt.prunedScan(spark, sk))
    assert(jobs == 0, s"building the scan of ${files.size} files started $jobs jobs")
    val got = scan.collect().map(_.getAs[Long]("k")).sorted.toSeq
    assert(got == sortedKeys(store.scanAll(spark).filter(sk.toColumn)))
    def local(f: String) = new org.apache.hadoop.fs.Path(f).toUri.getPath
    assert(scan.inputFiles.map(local).toSet == files.map(z => local(z.path)).toSet)
    val read = executedOperators(scan).collect { case s: FileSourceScanExec => s.metrics("numFiles").value }
    assert(read == Seq(files.size.toLong))
  }
}
