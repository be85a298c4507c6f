package repro

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.algebra._

/** Shared test fixtures, including the paper's running example (Fig. 1). */
object Fixtures {

  def sparkType(t: SqlType): DataType = t match {
    case TLong   => LongType
    case TInt    => IntegerType
    case TDouble => DoubleType
    case TString => StringType
    case TDate   => DateType
  }

  /** Build a DataFrame from an IR schema + row tuples. */
  def sparkDf(spark: SparkSession, schema: Seq[(String, SqlType)], rows: Seq[Seq[Any]],
              nullable: Boolean = false): DataFrame = {
    val st = StructType(schema.map { case (n, t) => StructField(n, sparkType(t), nullable) })
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows.map(Row.fromSeq), 2), st)
  }

  /** Same rows as a Lineage-interpreter database table. */
  def lineageTable(schema: Seq[(String, SqlType)], rows: Seq[Seq[Any]]): Seq[Map[String, Any]] =
    rows.map(r => schema.map(_._1).zip(r).toMap)

  // ---- Fig. 1b: the cities relation -----------------------------------
  val citiesSchema: Seq[(String, SqlType)] =
    Seq("popden" -> TLong, "city" -> TString, "state" -> TString)

  /** t1..t7 in paper order; Lineage row ids are 0-based (t1 = id 0). */
  val citiesRows: Seq[Seq[Any]] = Seq(
    Seq(4200L, "Anchorage", "AK"),
    Seq(6000L, "San Diego", "CA"),
    Seq(5000L, "Sacramento", "CA"),
    Seq(7000L, "New York", "NY"),
    Seq(2000L, "Buffalo", "NY"),
    Seq(3700L, "Austin", "TX"),
    Seq(2500L, "Houston", "TX"),
  )

  val cities: TableRef = TableRef("cities", citiesSchema)

  /** Q1 (Fig. 1a): cities in California. */
  val q1: Op = Project(
    Seq((Col("city"), "city"), (Col("popden"), "popden")),
    Select(Col("state") === Lit("CA"), cities))

  /** Q2 (Fig. 1a): state with the highest average population density. */
  val q2: Op = TopK(Seq(("avgden", false)), 1,
    Aggregate(Seq("state"), Seq(Agg(FAvg, Col("popden"), "avgden")), cities))

  /** Q_popState of Sec. 5.1/Ex. 6 — sum + HAVING-style selection. */
  def qPopState(threshold: Long, cmpOp: String = "<"): Op = Select(
    Cmp(cmpOp, Col("totden"), Lit(threshold)),
    Aggregate(Seq("state"), Seq(Agg(FSum, Col("popden"), "totden")), cities))

  /** F_state of Fig. 1e: [AL,DE], [FL,MI], [MN,OK], [OR,WY]. As half-open
    * upper boundaries for the RangePartition implementation (last = +inf).
    */
  val stateBounds: Seq[Any]  = Seq("DE~", "MI~", "OK~")
  /** F_popden of Fig. 1e: [1000,4000], [4001,9000]. */
  val popdenBounds: Seq[Any] = Seq(4000L)

  def citiesDb: Lineage.Db = Map("cities" -> lineageTable(citiesSchema, citiesRows))
}
