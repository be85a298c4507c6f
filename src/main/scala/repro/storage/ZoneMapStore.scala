package repro.storage

import org.apache.hadoop.fs.{FileStatus, Path}
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.spark.sql.{DataFrame, DataFrameReader, SparkSession}
import org.apache.spark.sql.execution.datasources.{FileStatusCache, HadoopFsRelation, InMemoryFileIndex}
import org.apache.spark.sql.execution.datasources.parquet.ParquetFileFormat
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DataType, StructType}
import repro.algebra.Lineage.compareAny
import repro.core.CapturedSketch

/** One zone: a Parquet file with min/max statistics on the zone attribute. */
final case class FileZone(path: String, min: Any, max: Any, rows: Long)

/** Zone-mapped Parquet dataset — the physical-design substrate sketches
  * exploit (the paper's Postgres brin/zone-map analog, Sec. 8/9).
  *
  * `write` range-clusters a table into N sorted files; the zone map records
  * per-file min/max of the clustering attribute. A sketch's merged ranges
  * then prune whole files before Spark ever opens them, so runtime scales
  * with the covered fraction — the same observable behaviour as a zone-map
  * index scan in the paper's disk-based system.
  */
final class ZoneMapStore(val path: String, val attr: String, val zones: Seq[FileZone]) {

  def totalRows: Long = zones.map(_.rows).sum
  def nFiles: Int = zones.size

  // Memoized DataFrame handles: repeated executions of the same (or a
  // reused) sketch should not pay file listing + plan construction again —
  // the DBMS analog keeps prepared plans. Keyed per session and sketch
  // (partition and bits: equal bits over other bounds select other rows).
  // Bounded: past `ScanCacheEntries` the oldest entry is evicted.
  private type Key = (SparkSession, Option[CapturedSketch])
  private val scanCache = new java.util.LinkedHashMap[Key, DataFrame] {
    override def removeEldestEntry(e: java.util.Map.Entry[Key, DataFrame]): Boolean =
      size > ZoneMapStore.ScanCacheEntries
  }

  private def cached(key: Key)(scan: => DataFrame): DataFrame =
    scanCache.synchronized {
      Option(scanCache.get(key)).getOrElse { val v = scan; scanCache.put(key, v); v }
    }

  private[storage] def cachedScans: Int = scanCache.synchronized(scanCache.size)

  /** Full scan — the No-PS baseline. It reads with the schema in a zone
    * file's footer, so building it starts no Spark job.
    */
  def scanAll(spark: SparkSession): DataFrame =
    cached((spark, None))(ZoneMapStore.reader(spark, zones.headOption.map(_.path)).parquet(path))

  private def overlaps(z: FileZone, lo: Option[Any], hi: Option[Any]): Boolean =
    lo.forall(l => compareAny(l, z.max) < 0) && hi.forall(h => compareAny(z.min, h) <= 0)

  /** Files overlapping any of the (lo-exclusive, hi-inclusive] ranges. */
  def matchingFiles(ranges: Seq[(Option[Any], Option[Any])]): Seq[FileZone] =
    zones.filter(z => ranges.exists { case (lo, hi) => overlaps(z, lo, hi) })

  /** Sketch-driven scan: read only the `matchingFiles` of the sketch's
    * merged ranges, then apply the sketch predicate as a residual filter
    * (zones are file-granular).
    *
    * The residual is `CapturedSketch.filter`: when it is the OR of merged
    * ranges, Parquet pushes it down for row-group skipping inside the
    * surviving files. Building it starts no Spark job, whatever the
    * number of files: they are read with `scanAll`'s schema (no
    * schema-inference job) through `readFiles` (no file-listing job).
    */
  def prunedScan(spark: SparkSession, sketch: CapturedSketch): DataFrame = {
    require(sketch.partition.attr == attr,
      s"sketch attr ${sketch.partition.attr} does not match zone attr $attr")
    cached((spark, Some(sketch))) {
      if (sketch.bits.isFull) scanAll(spark)
      else {
        val files = matchingFiles(sketch.partition.mergedRanges(sketch.fragments))
        if (files.isEmpty) scanAll(spark).filter(lit(false))
        else ZoneMapStore.readFiles(spark, files.map(_.path), scanAll(spark).schema)
          .filter(sketch.filter)
      }
    }
  }
}

object ZoneMapStore {

  /** Scan-cache bound per store. A benchmark pass uses a fresh store and
    * runs at most 48 instances, so it never evicts.
    */
  private[storage] val ScanCacheEntries = 64

  /** Most merged ranges `CapturedSketch.filter` decodes as their OR; a
    * sketch with more is decoded by binary-search membership, the paper's
    * default decode (Sec. 8.1). Up to 8 ranges the OR is as cheap per row
    * and Parquet pushes it down.
    */
  val MaxOrRanges = 8

  /** Key under which Spark writes a file's schema into its Parquet footer. */
  private val SparkSchemaKey = "org.apache.spark.sql.parquet.row.metadata"

  /** The Spark schema written in `file`'s Parquet footer, read on the
    * driver without a Spark job; None if the footer lacks Spark's key.
    */
  private[storage] def footerSchema(spark: SparkSession, file: String): Option[StructType] = {
    val footer = ParquetFileReader.open(
      HadoopInputFile.fromPath(new Path(file), spark.sparkContext.hadoopConfiguration))
    val json =
      try Option(footer.getFooter.getFileMetaData.getKeyValueMetaData.get(SparkSchemaKey))
      finally footer.close()
    json.map(DataType.fromJson(_).asInstanceOf[StructType])
  }

  /** Parquet reader with `file`'s footer schema, so `parquet(...)` starts no
    * schema-inference job; without a file or its footer schema it infers.
    */
  private def reader(spark: SparkSession, file: Option[String]): DataFrameReader =
    file.flatMap(footerSchema(spark, _)).fold(spark.read)(spark.read.schema(_))

  /** Parquet scan of exactly `files`, with `schema`. `spark.read.parquet`
    * of more than 32 paths lists them in a Spark job (the session's
    * parallel-partition-discovery threshold); here the driver reads each
    * file's status and hands them to the file index through its status
    * cache, so the index lists nothing. The relation is the one
    * `spark.read.schema(schema).parquet(files: _*)` builds.
    */
  private def readFiles(spark: SparkSession, files: Seq[String], schema: StructType): DataFrame = {
    val conf = spark.sparkContext.hadoopConfiguration
    val statuses = files.map { f => val p = new Path(f); p.getFileSystem(conf).getFileStatus(p) }
    val byPath = statuses.map(st => st.getPath -> Array(st)).toMap
    val cache = new FileStatusCache {
      override def getLeafFiles(p: Path): Option[Array[FileStatus]] = byPath.get(p)
      def putLeafFiles(p: Path, leaves: Array[FileStatus]): Unit = ()
      def invalidateAll(): Unit = ()
    }
    val index = new InMemoryFileIndex(spark, statuses.map(_.getPath), Map.empty, Some(schema), cache)
    spark.baseRelationToDataFrame(
      HadoopFsRelation(index, index.partitionSchema, schema, None, new ParquetFileFormat, Map.empty)(spark))
  }

  /** Range-cluster `df` on `attr` into ~`nFiles` sorted Parquet files.
    *
    * Small row groups (128 KB) make each file carry many min/max zones, so
    * a pushed-down sketch predicate skips at fine granularity *inside* the
    * files Spark does open — the analog of the paper's btree/brin access
    * paths, which operate at page granularity, not file granularity.
    */
  def write(df: DataFrame, path: String, attr: String, nFiles: Int): ZoneMapStore = {
    df.repartitionByRange(nFiles, col(attr))
      .sortWithinPartitions(attr)
      .write.mode("overwrite")
      .option("parquet.block.size", 128 * 1024)
      .option("parquet.page.size", 32 * 1024)
      .parquet(path)
    load(df.sparkSession, path, attr)
  }

  /** Rebuild the zone map from the files on disk (one stats pass, read with
    * the footer schema of a listed part file: no schema-inference job).
    */
  def load(spark: SparkSession, path: String, attr: String): ZoneMapStore = {
    val dir = new Path(path)
    val part = dir.getFileSystem(spark.sparkContext.hadoopConfiguration).listStatus(dir)
      .map(_.getPath).find(_.getName.endsWith(".parquet"))
    val zones = reader(spark, part.map(_.toString)).parquet(path)
      .groupBy(input_file_name().as("_file"))
      .agg(min(col(attr)).as("_min"), max(col(attr)).as("_max"), count(lit(1)).as("_rows"))
      .collect()
      .map(r => FileZone(r.getString(0), r.get(1), r.get(2), r.getLong(3)))
      .sortWith((a, b) => compareAny(a.min, b.min) < 0)
    new ZoneMapStore(path, attr, zones.toSeq)
  }
}
