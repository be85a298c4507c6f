package repro.core

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.algebra._
import repro.storage.TableStore

/** Self-tuning provenance-based data skipping (paper Sec. 9.5).
  *
  * For every incoming instance of a parameterized query the manager decides:
  * run plain (non-selective or unsafe template), run with a previously
  * captured sketch (exact binding hit or a `ReuseChecker` match), or capture
  * a new sketch. The *eager* strategy captures on every miss; *adaptive*
  * waits until a template has accumulated `evidenceThreshold` missed-use
  * observations, amortizing capture cost over workloads with recurring
  * parameters.
  */
object Pbds {
  sealed trait Strategy
  case object Eager extends Strategy
  final case class Adaptive(evidenceThreshold: Int) extends Strategy

  sealed trait Action
  /** Plain execution — non-selective, unsafe, or adaptive still waiting. */
  case object NoPs extends Action
  /** One instrumented execution that returns the answer and captures a
    * sketch (pays the capture overhead).
    */
  case object CaptureRun extends Action
  /** Executed with a sketch-restricted scan. */
  case object SketchUse extends Action
  /** A top-k hit whose pruned answer came out short (paper footnote 1):
    * the sketch cannot be trusted, and the answer is plain execution.
    */
  case object Fallback extends Action

  final case class Decision(action: Action, reusedFrom: Option[Map[String, Any]])

  /** Selectivity gate: above this share of the fragments covered by a
    * captured sketch, PBDS cannot skip enough.
    */
  val MaxSelectivity = 0.75

  /** Captures kept per template; past it the oldest is evicted. */
  private[core] val SketchesPerTemplate = 32

  /** A stored capture: its binding, its sketches and the row count of its
    * answer (the top-k check of an exact-binding hit needs it).
    */
  private[core] final case class Stored(binding: Map[String, Any],
                                        sketches: Map[String, CapturedSketch], rows: Int)

  /** The per-table candidate combinations the safety search tries, in
    * order, at most 64: sketches on every accessed table first, then
    * single-table sketches. Candidates whose attribute appears in a group-by
    * of the query come first — those give accurate fragments-per-group
    * sketches (the paper's "build the sketch over the query's group-by
    * attributes" heuristic, Sec. 9.3).
    */
  private[repro] def candidateSets(q: Op, perTable0: Map[String, Seq[RangePartition]]): Seq[Map[String, RangePartition]] = {
    def groupAttrs(op: Op): Set[String] = (op match {
      case Aggregate(g, _, _) => g.toSet
      case _                  => Set.empty[String]
    }) ++ op.children.flatMap(groupAttrs)
    val grouped = groupAttrs(q)
    val perTable = perTable0.map { case (t, ps) =>
      t -> ps.sortBy(p => if (grouped.contains(p.attr)) 0 else 1)
    }
    val tables = perTable.keys.toSeq
    val combos: Iterator[Map[String, RangePartition]] =
      tables.foldLeft(Iterator(Map.empty[String, RangePartition])) { (acc, t) =>
        acc.flatMap(m => perTable(t).iterator.map(p => m + (t -> p)))
      }
    val fallbackSingles = tables.iterator.flatMap(t => perTable(t).iterator.map(p => Map(t -> p)))
    (combos ++ fallbackSingles).take(64).toSeq
  }

  /** First safe combination of `candidateSets`. Its safety checks share one
    * `SafetyChecker.Checks`, so an obligation two combinations pose is
    * solved once; the memo is dropped when the search returns.
    */
  private[repro] def chooseSafe(q: Op, perTable: Map[String, Seq[RangePartition]],
                                stats: SafetyChecker.Stats): Option[Map[String, RangePartition]] = {
    val checks = Some(new SafetyChecker.Checks(q, stats))
    candidateSets(q, perTable).find(m => SafetyChecker.isSafe(q, m.values.map(_.attr).toSet, stats, checks))
  }
}

/** A named parameterized query (Sec. 6). */
final case class Template(name: String, op: Op)

final class PbdsManager(
    spark: SparkSession,
    store: TableStore,
    candidates: Map[String, Seq[RangePartition]],
    stats: SafetyChecker.Stats = SafetyChecker.Stats(),
    strategy: Pbds.Strategy = Pbds.Eager) {

  import Pbds._

  // Per template (Lemma 4): the chosen safe partition set, or None if no
  // candidate combination passes the safety check. The check runs on the
  // template with its parameters symbolic, so the verdict holds for every
  // binding.
  private val safetyCache = mutable.Map.empty[String, Option[Map[String, RangePartition]]]
  private val sketchStore = mutable.Map.empty[String, List[Stored]]
  private val missedUses = mutable.Map.empty[String, Int]
  // Templates whose captured sketches turned out non-selective: PBDS cannot
  // help them, stop paying capture cost (the paper's selectivity gate).
  private val notWorth = mutable.Set.empty[String]

  /** Bindings of the sketches stored for a template (newest first). */
  def sketchesFor(template: String): Seq[Map[String, Any]] = storedFor(template).map(_.binding)

  private[core] def storedFor(template: String): List[Stored] = sketchStore.getOrElse(template, Nil)

  private def hasTopK(op: Op): Boolean = op.isInstanceOf[TopK] || op.children.exists(hasTopK)

  /** Decide how to run `template` at `binding` and return its answer with
    * the decision. On `CaptureRun` the DataFrame is a local relation over
    * the rows the instrumented query already computed, so the capture is the
    * only execution (C_cap, not C_cap + C_noPS). A `SketchUse` of a top-k
    * template is likewise the local relation of its one pruned execution.
    * Otherwise it is the plan still to execute.
    */
  def run(template: Template, binding: Map[String, Any]): (DataFrame, Decision) = {
    val q = Algebra.bind(template.op, binding)
    lazy val catalog = store.catalog(spark)

    def plain = ToSpark.compile(q, catalog)

    if (notWorth.contains(template.name)) return (plain, Decision(NoPs, None))
    // Below the root, a τ's input is not seen in the answer, so the top-k
    // check after the run cannot be made: such templates run plain.
    if (q.children.exists(hasTopK)) return (plain, Decision(NoPs, None))

    val perTable = candidates.filter { case (t, ps) =>
      ps.nonEmpty && Algebra.tables(q).exists(_.name == t)
    }
    if (perTable.isEmpty) return (plain, Decision(NoPs, None))

    val chosen = safetyCache.getOrElseUpdate(template.name, chooseSafe(template.op, perTable, stats))
    if (chosen.isEmpty) return (plain, Decision(NoPs, None))
    val parts = chosen.get

    // Reuse lookup: exact binding, else the Sec. 6 sufficient condition.
    val stored = storedFor(template.name)
    val hit = stored.find(_.binding == binding).orElse(
      stored.find(s => ReuseChecker.canReuse(template.op, s.binding, binding, stats)))

    hit match {
      case Some(s) =>
        val pruned = ToSpark.compile(q, store.catalog(spark, s.sketches))
        val used = Decision(SketchUse, Some(s.binding))
        q match {
          // Top-k runtime check (paper footnote 1), made after the one
          // pruned execution: τ's input under the sketch held enough rows
          // iff the answer has `need` of them. An exact-binding hit needs
          // only as many as its capture returned; a reuse hit needs k.
          case TopK(_, k, _) =>
            val rows = pruned.collect()
            val need = if (s.binding == binding) math.min(k, s.rows) else k
            if (rows.length < need) (plain, Decision(Fallback, Some(s.binding)))
            else (spark.createDataFrame(rows.toSeq.asJava, pruned.schema), used)
          case _ => (pruned, used)
        }
      case None =>
        val shouldCapture = strategy match {
          case Eager => true
          case Adaptive(threshold) =>
            val n = missedUses.getOrElse(template.name, 0) + 1
            missedUses(template.name) = n
            n >= threshold
        }
        if (shouldCapture) {
          val c = Capture.run(q, parts.values.toSeq, catalog)
          // Post-capture gate: a sketch covering most fragments cannot skip
          // anything — blacklist the template rather than storing it.
          if (c.sketches.values.forall(_.selectivity > MaxSelectivity)) notWorth += template.name
          else {
            sketchStore(template.name) =
              (Stored(binding, c.sketches, c.rows) :: stored).take(SketchesPerTemplate)
            missedUses(template.name) = 0
          }
          (c.answer, Decision(CaptureRun, None))
        } else (plain, Decision(NoPs, None))
    }
  }
}
