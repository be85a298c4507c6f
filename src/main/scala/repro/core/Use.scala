package repro.core

import org.apache.spark.sql.DataFrame
import repro.algebra._

/** Using provenance sketches (paper Sec. 8).
  *
  * `Q[P]` is the identity on every operator except table accesses, which are
  * wrapped in a selection decoding the sketch (Eq. 2). On Spark, sketch use
  * goes through `TableStore.catalog(spark, sketches)`, whose sketch scans apply
  * `CapturedSketch.filter` (the Sec. 8.1 OR-of-ranges vs binary-search
  * choice) after any file pruning the store can do.
  */
object Use {

  /** IR-level instrumentation Q[P]. */
  def instrument(q: Op, sketches: Map[String, CapturedSketch]): Op =
    Algebra.transformTables(q) { t =>
      sketches.get(t.name) match {
        case Some(s) => Select(s.toPred, t)
        case None    => t
      }
    }

  /** Runtime re-validation for τ_{O,C} (paper footnote 1): under the sketch,
    * every top-k input must still hold at least C tuples, otherwise the
    * sketch-restricted answer may be short and the caller must fall back.
    * `sketchCatalog` is the store's catalog under the sketches.
    */
  def revalidateTopK(q: Op, sketchCatalog: Map[String, DataFrame]): Boolean = {
    def topKs(op: Op): Seq[TopK] = (op match {
      case t: TopK => Seq(t)
      case _       => Seq.empty
    }) ++ op.children.flatMap(topKs)
    topKs(q).forall(tk => ToSpark.compile(tk.child, sketchCatalog).limit(tk.k).count() >= tk.k)
  }
}
