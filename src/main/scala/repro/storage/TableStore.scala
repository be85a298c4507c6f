package repro.storage

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.CapturedSketch

/** Abstraction over the two execution substrates of the evaluation:
  * a disk-based system with zone maps (Postgres analog) and a main-memory
  * system that can only cheapen predicate evaluation (MonetDB analog).
  */
trait TableStore {
  def tableNames: Seq[String]
  def scan(spark: SparkSession, table: String): DataFrame
  /** Scan restricted by a sketch — with data skipping if the store has it. */
  def scanWithSketch(spark: SparkSession, table: String, sketch: CapturedSketch): DataFrame
  /** Catalog view for the IR compilers. */
  def catalog(spark: SparkSession): Map[String, DataFrame] =
    tableNames.map(t => t -> scan(spark, t)).toMap
}

/** Main-memory store: cached DataFrames; a sketch becomes a plain filter —
  * no skipping, like MonetDB without indexes (paper Sec. 9.3 "MonetDB"
  * experiments).
  */
final class MemTableStore(tables: Map[String, DataFrame]) extends TableStore {
  def tableNames: Seq[String] = tables.keys.toSeq
  def scan(spark: SparkSession, table: String): DataFrame = tables(table)
  def scanWithSketch(spark: SparkSession, table: String, sketch: CapturedSketch): DataFrame =
    tables(table).filter(sketch.filter)
}

/** Disk store over zone-mapped Parquet: sketches prune whole files before
  * the scan (Postgres brin analog). Tables without a zone map fall back to
  * full scans with a residual filter.
  */
final class ZoneMapTableStore(stores: Map[String, ZoneMapStore],
                              extra: Map[String, DataFrame] = Map.empty) extends TableStore {
  def tableNames: Seq[String] = (stores.keys ++ extra.keys).toSeq
  def scan(spark: SparkSession, table: String): DataFrame =
    stores.get(table).map(_.scanAll(spark)).getOrElse(extra(table))
  def scanWithSketch(spark: SparkSession, table: String, sketch: CapturedSketch): DataFrame =
    stores.get(table) match {
      case Some(s) if s.attr == sketch.partition.attr => s.prunedScan(spark, sketch)._1
      case Some(s) => s.scanAll(spark).filter(sketch.filter)
      case None    => extra(table).filter(sketch.filter)
    }
}
