package repro.core

import org.apache.spark.sql.{Column, DataFrame, Encoders, Row}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.{functions => F}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType
import repro.algebra._

/** Provenance-sketch capture by query instrumentation (paper Sec. 7, Fig. 6).
  *
  * The input query is compiled bottom-up like `ToSpark`, but every sketched
  * base table gains an annotation (rule r0/INIT) that is propagated through
  * σ/Π/τ/⋈/∪ unchanged (r1, r2, r4–r6) and merged with a BITOR aggregate
  * at every γ/δ (r3). The instrumented plan runs once: its rows are the
  * query's answer, and the final global BITOR (r7) is an OR on the driver
  * over their annotation columns.
  *
  * Capture has one path, built from the Sec. 7.3 optimizations: INIT is the
  * binary-search lookup (`RangePartition.lookupColumn`), and the annotation
  * is a fragment index `_ps_<t>` until the first aggregate (the delay
  * method). The merge has two kernels, chosen per table by the width of
  * its partition:
  *   - up to `MaxWordColumns` 64-bit words, the bitset is one Long column
  *     `_ps_<t>_<j>` per word, merged with Spark's built-in `bit_or` (the
  *     paper's Postgres `bit_or`). Every γ/δ stays a whole-stage-codegen
  *     `HashAggregateExec`, and the query's own aggregates run in it;
  *   - wider partitions keep one array column `_ps_<t>`: the first
  *     aggregate turns indexes into a bitset (`FragToBitsetAgg`), later
  *     ones OR bitsets in place (`BitsetOrAgg` without copying). These are
  *     interpreted Aggregators (`ObjectHashAggregateExec`), O(1) per row
  *     where the word columns cost O(words).
  * A single min/max aggregate uses r3's precise refinement: only
  * extreme-achieving rows contribute. The baselines these optimizations
  * beat (CASE-chain INIT, copying merge) are timed against the kernels in
  * T6/T7 (`CaptureOptExperiments`).
  */
object Capture {

  /** Widest partition, in 64-bit words (8 words = 512 fragments), whose
    * annotation is merged by the `bit_or` word kernel; wider partitions use
    * the Aggregators. At 8 words T7 (`CaptureOptExperiments`) has the
    * words winning globally and grouped into 1000 balanced groups, and
    * full captures over ratings (global, grouped on 1000 or 5 keys, γ over
    * γ) were faster with them at 1–9 words; at 16 words they lost the
    * 5-key grouping. Under 5 groups the bare grouped word merge was up to
    * 17% slower at 8 words. No perfbench partition is wider than 4 words,
    * so 5–8 words are checked by `CaptureSpec`, not by the benchmark.
    */
  val MaxWordColumns = 8

  /** What a table's annotation currently is. */
  private[core] sealed trait LState
  /** A fragment index, one Int column `_ps_<t>`: INIT up to the first γ/δ. */
  private[core] case object FragIdx extends LState
  /** A bitset, one array column `_ps_<t>`: merged by the Aggregators. */
  private[core] case object Bitset extends LState
  /** A bitset, one Long column `_ps_<t>_<j>` per word: merged by `bit_or`. */
  private[core] case object Words extends LState

  private def lcol(table: String): String = s"_ps_$table"
  private def wcol(table: String, j: Int): String = s"_ps_${table}_$j"

  private def usesWords(p: RangePartition): Boolean = BitSketch.nWords(p.nFragments) <= MaxWordColumns

  /** The columns carrying table `t`'s annotation in state `s`. */
  private def annotationCols(t: String, s: LState, p: RangePartition): Seq[String] = s match {
    case Words => (0 until BitSketch.nWords(p.nFragments)).map(wcol(t, _))
    case _     => Seq(lcol(t))
  }

  // --- aggregators ------------------------------------------------------

  private def arrayEnc: ExpressionEncoder[Array[Long]] = ExpressionEncoder[Array[Long]]()

  /** Delay-method merge: fragment indexes in, bitset out; mutates buffer.
    * Both merges skip a NULL annotation: it comes from a NULL sketch
    * attribute or from the row r3's join-back keeps for a min/max over no
    * rows, and adds no fragment.
    */
  final class FragToBitsetAgg(nFragments: Int) extends Aggregator[Integer, Array[Long], Array[Long]] {
    def zero: Array[Long] = new Array[Long](BitSketch.nWords(nFragments))
    def reduce(b: Array[Long], i: Integer): Array[Long] = {
      if (i != null) b(i >> 6) |= 1L << (i & 63)
      b
    }
    def merge(a: Array[Long], b: Array[Long]): Array[Long] = {
      var i = 0; while (i < a.length) { a(i) |= b(i); i += 1 }; a
    }
    def finish(r: Array[Long]): Array[Long] = r
    def bufferEncoder: ExpressionEncoder[Array[Long]] = arrayEnc
    def outputEncoder: ExpressionEncoder[Array[Long]] = arrayEnc
  }

  /** Bitset BITOR. `copy = true` reproduces the unoptimized Postgres
    * behaviour (fresh bitset per input row); `false` is the No-copy method,
    * the one capture runs. T7 times both.
    */
  final class BitsetOrAgg(nWords: Int, copy: Boolean) extends Aggregator[Array[Long], Array[Long], Array[Long]] {
    def zero: Array[Long] = new Array[Long](nWords)
    def reduce(b: Array[Long], in: Array[Long]): Array[Long] = {
      if (in == null) return b
      val tgt = if (copy) b.clone() else b
      var i = 0; while (i < nWords) { tgt(i) |= in(i); i += 1 }; tgt
    }
    def merge(a: Array[Long], b: Array[Long]): Array[Long] = {
      val tgt = if (copy) a.clone() else a
      var i = 0; while (i < nWords) { tgt(i) |= b(i); i += 1 }; tgt
    }
    def finish(r: Array[Long]): Array[Long] = r
    def bufferEncoder: ExpressionEncoder[Array[Long]] = arrayEnc
    def outputEncoder: ExpressionEncoder[Array[Long]] = arrayEnc
  }

  /** The first `bit_or` merge of the word kernel: word j of the bitset of
    * the fragment indexes in `frag`, `bit_or(1L << f)` over the rows whose
    * index falls in word j. A NULL index sets no bit; a word no row sets
    * is NULL.
    */
  def fragWords(frag: Column, nFragments: Int): Seq[Column] = {
    val nw = BitSketch.nWords(nFragments)
    val bit = call_function("shiftleft", lit(1L), frag.bitwiseAND(63))
    if (nw == 1) Seq(bit_or(bit))
    else (0 until nw).map(j => bit_or(when(shiftRight(frag, 6) === j, bit)))
  }

  // --- capture ----------------------------------------------------------

  /** One instrumented execution: the answer as a local DataFrame, its row
    * count, and one sketch per sketched table.
    */
  final case class Captured(answer: DataFrame, rows: Int, sketches: Map[String, CapturedSketch])

  /** The instrumented query `run` executes, over one partition per table
    * in `parts`: the answer's columns plus the annotation columns of each
    * sketched table, with their state.
    */
  private[core] def instrumented(q: Op, parts: Map[String, RangePartition],
                                 catalog: Map[String, DataFrame]): (DataFrame, Map[String, LState]) = {
    val (df, states) = prop(q, parts, catalog)
    require(states.nonEmpty, "no sketched table is accessed by the query")
    (df, states)
  }

  /** Instrument `q` and execute it once, returning its answer and one sketch
    * per partition. The answer is a local DataFrame over the rows already
    * collected, so using it runs no further Spark job. Partitions must be
    * safe for `q` (check with `SafetyChecker` first) for the sketches to be
    * usable; capture itself is partition-agnostic.
    */
  def run(q: Op, partitions: Seq[RangePartition], catalog: Map[String, DataFrame]): Captured = {
    val parts = partitions.map(p => p.table -> p).toMap
    require(parts.size == partitions.size, "one partition per table")
    val (df, states) = instrumented(q, parts, catalog)
    val fields = df.schema.fields
    // Per sketched table: its state, its columns and the bitset r7 ORs into.
    val ann = states.toSeq.map { case (t, s) =>
      (t, s, annotationCols(t, s, parts(t)).map(c => fields.indexWhere(_.name == c)).toArray,
        new Array[Long](BitSketch.nWords(parts(t).nFragments)))
    }
    val annIdx = ann.flatMap(_._3).toSet
    val answerIdx = fields.indices.filterNot(annIdx)
    val rows = df.collect()
    val answer = new java.util.ArrayList[Row](rows.length)
    for (r <- rows) {
      // r7: OR each row's annotations into one bitset per table. A NULL
      // annotation or word adds nothing, as in the merges.
      for ((_, s, is, w) <- ann) s match {
        case FragIdx =>
          if (!r.isNullAt(is(0))) { val f = r.getInt(is(0)); w(f >> 6) |= 1L << (f & 63) }
        case Bitset =>
          if (!r.isNullAt(is(0))) {
            val b = r.getSeq[Long](is(0))
            var j = 0; while (j < w.length) { w(j) |= b(j); j += 1 }
          }
        case Words =>
          var j = 0; while (j < w.length) { if (!r.isNullAt(is(j))) w(j) |= r.getLong(is(j)); j += 1 }
      }
      answer.add(Row.fromSeq(answerIdx.map(r.get)))
    }
    val sketches = ann.map { case (t, _, _, w) =>
      t -> CapturedSketch(parts(t), BitSketch.fromWords(parts(t).nFragments, w))
    }.toMap
    val schema = StructType(answerIdx.map(fields))
    Captured(df.sparkSession.createDataFrame(answer, schema), rows.length, sketches)
  }

  /** The sketches of `run`, without its answer. */
  def capture(q: Op, partitions: Seq[RangePartition],
              catalog: Map[String, DataFrame]): Map[String, CapturedSketch] =
    run(q, partitions, catalog).sketches

  /** The BITOR aggregates of one γ/δ, per table by its kernel: `bit_or` of
    * each word column (`fragWords` at the first merge) up to
    * `MaxWordColumns` words, else `FragToBitsetAgg` while the column still
    * holds fragment indexes and the no-copy `BitsetOrAgg` after.
    */
  private def merges(st: Map[String, LState], parts: Map[String, RangePartition]): Seq[Column] =
    st.toSeq.flatMap { case (t, s) =>
      val p = parts(t)
      val nw = BitSketch.nWords(p.nFragments)
      s match {
        case FragIdx if usesWords(p) =>
          fragWords(col(lcol(t)), p.nFragments).zipWithIndex.map { case (c, j) => c.as(wcol(t, j)) }
        case Words   => (0 until nw).map(j => bit_or(col(wcol(t, j))).as(wcol(t, j)))
        case FragIdx => Seq(F.udaf(new FragToBitsetAgg(p.nFragments), Encoders.INT)(col(lcol(t))).as(lcol(t)))
        case Bitset  => Seq(F.udaf(new BitsetOrAgg(nw, copy = false), arrayEnc)(col(lcol(t))).as(lcol(t)))
      }
    }

  /** The states after a merge. */
  private def merged(st: Map[String, LState], parts: Map[String, RangePartition]): Map[String, LState] =
    st.map { case (t, _) => t -> (if (usesWords(parts(t))) Words else Bitset) }

  private def prop(op: Op, parts: Map[String, RangePartition],
                   catalog: Map[String, DataFrame]): (DataFrame, Map[String, LState]) =
    op match {
      case TableRef(name, schema) =>
        val base = catalog.getOrElse(name, sys.error(s"table $name not in catalog"))
          .select(schema.map(f => col(f._1)): _*)
        parts.get(name) match {
          case None => (base, Map.empty)
          case Some(p) =>
            require(schema.exists(_._1 == p.attr), s"partition attr ${p.attr} not in $name")
            (base.withColumn(lcol(name), p.lookupColumn(identity[Int])), Map(name -> FragIdx))
        }
      case Select(pred, c) =>
        val (df, st) = prop(c, parts, catalog)
        (df.filter(ToSpark.pred(pred)), st)
      case Project(items, c) =>
        val (df, st) = prop(c, parts, catalog)
        val cols = items.map { case (e, a) => ToSpark.expr(e).as(a) } ++
          st.toSeq.flatMap { case (t, s) => annotationCols(t, s, parts(t)) }.map(col)
        (df.select(cols.toSeq: _*), st)
      case Aggregate(g, aggs, c) =>
        val (df, st) = prop(c, parts, catalog)
        if (st.isEmpty) (ToSpark.compile(op, catalog), st)
        else if (aggs.size == 1 && (aggs.head.fn == FMin || aggs.head.fn == FMax))
          minMaxPrecise(df, g, aggs.head, st, parts)
        else {
          val cols = aggs.map(ToSpark.aggCol) ++ merges(st, parts)
          val out =
            if (g.isEmpty) df.agg(cols.head, cols.tail: _*)
            else df.groupBy(g.map(col): _*).agg(cols.head, cols.tail: _*)
          (out, merged(st, parts))
        }
      case TopK(order, k, c) =>
        val (df, st) = prop(c, parts, catalog)
        (df.orderBy(order.map { case (n, asc) => if (asc) col(n).asc else col(n).desc }: _*).limit(k), st)
      case Join(l, r, on) =>
        val (lf, ls) = prop(l, parts, catalog)
        val (rf, rs) = prop(r, parts, catalog)
        val cond = on.map { case (lc, rc) => lf(lc) === rf(rc) }.reduce(_ && _)
        (lf.join(rf, cond, "inner"), ls ++ rs)
      case UnionAll(l, r) =>
        val (lf, ls) = prop(l, parts, catalog)
        val (rf, rs) = prop(r, parts, catalog)
        require(ls.keySet == rs.keySet && ls == rs,
          "union branches must carry identical sketch annotations")
        (lf.unionByName(rf), ls)
      case Distinct(c) =>
        // δ: not in Fig. 6 but needed for completeness — group on all value
        // columns and BITOR the annotations of collapsed duplicates.
        val (df, st) = prop(c, parts, catalog)
        if (st.isEmpty) (df.distinct(), st)
        else {
          val cols = merges(st, parts)
          (df.groupBy(c.columns.map(col): _*).agg(cols.head, cols.tail: _*), merged(st, parts))
        }
    }

  /** r3 for min/max: only rows achieving the group extreme contribute. The
    * join back matches NULL group keys and NULL extremes (a group whose
    * inputs are all NULL) null-safely, and keeps every group of `aggDf`:
    * a global min/max over no rows is one NULL row with no provenance.
    */
  private def minMaxPrecise(df: DataFrame, g: Seq[String], a: Agg,
                            st: Map[String, LState],
                            parts: Map[String, RangePartition]): (DataFrame, Map[String, LState]) = {
    val in = ToSpark.expr(a.input)
    val aggDf = {
      val c = (if (a.fn == FMin) min(in) else max(in)).as(a.alias)
      if (g.isEmpty) df.agg(c) else df.groupBy(g.map(col): _*).agg(c)
    }
    // Rename the base side to dodge ambiguity, precompute the agg input.
    var base = df.withColumn("_ps_val", in)
    for (gc <- g) base = base.withColumnRenamed(gc, s"_ps_g_$gc")
    val cond = (g.map(gc => aggDf(gc) <=> base(s"_ps_g_$gc")) :+ (base("_ps_val") <=> aggDf(a.alias)))
      .reduce(_ && _)
    val joined = aggDf.join(base, cond, "left_outer")
    val ms = merges(st, parts)
    val out = joined.groupBy((g :+ a.alias).map(col): _*).agg(ms.head, ms.tail: _*)
    (out, merged(st, parts))
  }
}
