package repro.core

import repro.algebra._

/** Using provenance sketches (paper Sec. 8).
  *
  * `Q[P]` is the identity on every operator except table accesses, which are
  * wrapped in a selection decoding the sketch (Eq. 2). On Spark, sketch use
  * goes through `TableStore.catalog(spark, sketches)`, whose sketch scans apply
  * `CapturedSketch.filter` (the Sec. 8.1 OR-of-ranges vs binary-search
  * choice) after any file pruning the store can do. The top-k runtime check
  * (footnote 1) is made by `PbdsManager` on the answer of the pruned run.
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
}
