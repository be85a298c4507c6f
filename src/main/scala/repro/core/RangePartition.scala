package repro.core

import scala.reflect.runtime.universe.TypeTag

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{col, lit, udf, when}
import repro.algebra._
import repro.algebra.Lineage.compareAny
import repro.stats.EquiDepth
import repro.storage.ZoneMapStore

/** Range partition of one attribute (paper Def. 2), encoded as `n-1` sorted
  * boundary values: fragment 0 = (-∞, b₀], fragment i = (bᵢ₋₁, bᵢ],
  * fragment n-1 = (bₙ₋₂, +∞). Half-open intervals cover the whole domain
  * without needing per-type successor values.
  */
final case class RangePartition(table: String, attr: String, attrType: SqlType,
                                bounds: IndexedSeq[Any]) {

  val nFragments: Int = bounds.size + 1

  /** O(log n) fragment lookup — the paper's binary-search capture UDF. */
  def fragmentOf(v: Any): Int = {
    var lo = 0; var hi = bounds.size // invariant: answer in [lo, hi]
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (compareAny(v, bounds(mid)) <= 0) hi = mid else lo = mid + 1
    }
    lo
  }

  /** O(n) lookup — models the paper's chained-CASE-expression baseline. */
  def fragmentOfLinear(v: Any): Int = {
    var i = 0
    while (i < bounds.size && compareAny(v, bounds(i)) > 0) i += 1
    i
  }

  /** Chained CASE column assigning the fragment index: the Sec. 7.3 INIT
    * baseline that T6 times against `lookupColumn`. Built as one flat
    * CaseWhen (n branches, still O(n) evaluation per row — the baseline the
    * binary-search UDF beats) rather than nested
    * when/otherwise, which overflows the stack at large n.
    */
  def caseColumn(c: Column): Column = {
    if (bounds.isEmpty) return lit(0)
    var w = when(c <= ToSpark.expr(Lit(bounds(0))), lit(0))
    var i = 1
    while (i < bounds.size) { w = w.when(c <= ToSpark.expr(Lit(bounds(i))), lit(i)); i += 1 }
    w.otherwise(lit(bounds.size))
  }

  /** UDF column mapping the attribute value `v` to `f(fragmentOf(v))`: the
    * binary-search lookup behind capture INIT, T7's singleton bitsets and
    * membership decode. Long/Int/Double inputs are Scala primitives, so Spark yields
    * NULL for a NULL input without calling `f`.
    */
  def lookupColumn[R: TypeTag](f: Int => R): Column = {
    val lookup = attrType match {
      case TLong   => udf((v: Long) => f(fragmentOf(v)))
      case TInt    => udf((v: Int) => f(fragmentOf(v)))
      case TDouble => udf((v: Double) => f(fragmentOf(v)))
      case TString => udf((v: String) => f(fragmentOf(v)))
      case TDate   => udf((v: java.sql.Date) => f(fragmentOf(v)))
    }
    lookup(col(attr))
  }

  /** Merge an ascending fragment set into maximal adjacent runs, returned as
    * (lower-exclusive, upper-inclusive) with None = unbounded (Sec. 8.1).
    */
  def mergedRanges(frags: Seq[Int]): Seq[(Option[Any], Option[Any])] = {
    val runs = frags.sorted.foldLeft(List.empty[(Int, Int)]) {
      case ((s, e) :: rest, f) if f == e + 1 => (s, f) :: rest
      case (acc, f)                          => (f, f) :: acc
    }.reverse
    runs.map { case (s, e) =>
      (if (s == 0) None else Some(bounds(s - 1)),
       if (e == nFragments - 1) None else Some(bounds(e)))
    }
  }

  /** IR predicate selecting the data of the given fragments (Eq. 2 + the
    * adjacent-range merge optimization). Empty set → false, full → true.
    * The OR is balanced — sketches with thousands of selected ranges would
    * otherwise build recursion-depth-linear trees.
    */
  def toPred(frags: Seq[Int]): Pred = {
    if (frags.isEmpty) return Cmp("<", Lit(0L), Lit(0L))
    if (frags.size == nFragments) return PTrue
    val a = Col(attr)
    RangePartition.balanced(mergedRanges(frags).map { case (lo, hi) =>
      (lo, hi) match {
        case (None, Some(h))    => a <= Lit(h)
        case (Some(l), Some(h)) => (a > Lit(l)) && (a <= Lit(h))
        case (Some(l), None)    => a > Lit(l)
        case (None, None)       => PTrue
      }
    })(POr(_, _))
  }

  /** DataFrame filter for the given fragments (OR-of-ranges decode). */
  def toColumn(frags: Seq[Int]): Column = ToSpark.pred(toPred(frags))
}

object RangePartition {
  /** Balanced binary reduce: O(log n) tree depth for big OR decodes. */
  private[core] def balanced[T](xs: Seq[T])(f: (T, T) => T): T = {
    require(xs.nonEmpty)
    if (xs.size == 1) xs.head
    else {
      val (a, b) = xs.splitAt(xs.size / 2)
      f(balanced(a)(f), balanced(b)(f))
    }
  }

  /** Build from equi-depth statistics, like the paper does (Sec. 9.3). */
  def equiDepth(df: DataFrame, table: String, attr: String, attrType: SqlType,
                nFragments: Int, seed: Long = 7): RangePartition =
    RangePartition(table, attr, attrType,
      EquiDepth.boundaries(df, attr, nFragments, seed = seed).toIndexedSeq)
}

/** A captured provenance sketch: the partition plus the fragment bitvector.
  * `Q[P]` instrumentation and the table stores decode it via `partition`.
  */
final case class CapturedSketch(partition: RangePartition, bits: BitSketch) {
  require(bits.nFragments == partition.nFragments, "sketch/partition mismatch")
  def table: String = partition.table
  def fragments: Seq[Int] = bits.fragments
  def selectivity: Double = bits.selectivity
  def toPred: Pred = partition.toPred(fragments)
  def toColumn: Column = partition.toColumn(fragments)
  /** Binary-search membership test: O(log n) per row, but opaque to Parquet. */
  def membership: Column = partition.lookupColumn(bits.get)
  /** The decode every store applies (Sec. 8.1): binary-search membership,
    * the paper's default, unless the sketch merges into at most
    * `ZoneMapStore.MaxOrRanges` ranges; their OR costs no more per row and
    * Parquet pushes it down.
    */
  def filter: Column =
    if (partition.mergedRanges(fragments).size <= ZoneMapStore.MaxOrRanges) toColumn
    else membership
  /** Superset union (Lemma 5: adding fragments keeps a sketch safe). */
  def union(o: CapturedSketch): CapturedSketch = {
    require(o.partition == partition, "sketches over different partitions")
    CapturedSketch(partition, bits.or(o.bits))
  }
  def covers(o: CapturedSketch): Boolean =
    o.partition == partition && o.bits.subsetOf(bits)
}
