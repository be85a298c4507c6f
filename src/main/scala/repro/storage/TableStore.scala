package repro.storage

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.CapturedSketch

/** The one way anything reads a table, with or without a sketch. */
trait TableStore {
  def tableNames: Seq[String]
  def scan(spark: SparkSession, table: String): DataFrame
  /** Scan restricted by a sketch — with data skipping if the store has it. */
  def scanWithSketch(spark: SparkSession, table: String, sketch: CapturedSketch): DataFrame
  /** Catalog view for the IR compilers: each table in `sketches` is read
    * through its sketch scan (Q[P]), every other table in full.
    */
  final def catalog(spark: SparkSession,
                    sketches: Map[String, CapturedSketch] = Map.empty): Map[String, DataFrame] =
    tableNames.map { t =>
      t -> sketches.get(t).fold(scan(spark, t))(scanWithSketch(spark, t, _))
    }.toMap
}

/** The store of both substrates of the evaluation (paper Sec. 9.3).
  *
  * Tables in `stores` are zone-mapped Parquet: a sketch on the zone
  * attribute prunes whole files before the scan (Postgres brin analog).
  * Tables in `extra` are plain DataFrames, and a sketch on them, or on
  * another attribute of a zone-mapped table, is only a filter. With
  * `stores` empty this is the main-memory substrate that can only cheapen
  * predicate evaluation (MonetDB analog): `new ZoneMapTableStore(Map.empty, tables)`.
  */
final class ZoneMapTableStore(stores: Map[String, ZoneMapStore],
                              extra: Map[String, DataFrame] = Map.empty) extends TableStore {
  def tableNames: Seq[String] = (stores.keys ++ extra.keys).toSeq
  def scan(spark: SparkSession, table: String): DataFrame =
    stores.get(table).map(_.scanAll(spark)).getOrElse(extra(table))
  def scanWithSketch(spark: SparkSession, table: String, sketch: CapturedSketch): DataFrame =
    stores.get(table) match {
      case Some(s) if s.attr == sketch.partition.attr => s.prunedScan(spark, sketch)
      case _ => scan(spark, table).filter(sketch.filter)
    }
}
