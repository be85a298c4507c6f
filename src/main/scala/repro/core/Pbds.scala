package repro.core

import scala.collection.mutable

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
  /** Sketch failed top-k runtime re-validation; fell back to plain. */
  case object Fallback extends Action

  final case class Decision(action: Action, reusedFrom: Option[Map[String, Any]])

  /** Selectivity gate: above this share of the fragments covered by a
    * captured sketch, PBDS cannot skip enough.
    */
  val MaxSelectivity = 0.75
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
  private val sketchStore =
    mutable.Map.empty[String, List[(Map[String, Any], Map[String, CapturedSketch])]]
  private val missedUses = mutable.Map.empty[String, Int]
  // Templates whose captured sketches turned out non-selective: PBDS cannot
  // help them, stop paying capture cost (the paper's selectivity gate).
  private val notWorth = mutable.Set.empty[String]

  /** Sketches captured so far for a template (newest first). */
  def sketchesFor(template: String): Seq[Map[String, Any]] =
    sketchStore.getOrElse(template, Nil).map(_._1)

  /** First safe combination of per-table candidates, preferring sketches on
    * every accessed table, then single-table sketches. Candidates whose
    * attribute appears in a group-by of the query are tried first — those
    * give accurate fragments-per-group sketches (the paper's "build the
    * sketch over the query's group-by attributes" heuristic, Sec. 9.3).
    */
  private def chooseSafe(q: Op, perTable0: Map[String, Seq[RangePartition]]): Option[Map[String, RangePartition]] = {
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
    (combos ++ fallbackSingles).take(64)
      .find(m => SafetyChecker.isSafe(q, m.values.map(_.attr).toSet, stats))
  }

  /** Decide how to run `template` at `binding` and return its answer with
    * the decision. On `CaptureRun` the DataFrame is a local relation over
    * the rows the instrumented query already computed, so the capture is the
    * only execution (C_cap, not C_cap + C_noPS); otherwise it is the plan
    * still to execute.
    */
  def run(template: Template, binding: Map[String, Any]): (DataFrame, Decision) = {
    val q = Algebra.bind(template.op, binding)
    lazy val catalog = store.catalog(spark)

    def plain = ToSpark.compile(q, catalog)

    if (notWorth.contains(template.name)) return (plain, Decision(NoPs, None))

    val perTable = candidates.filter { case (t, ps) =>
      ps.nonEmpty && Algebra.tables(q).exists(_.name == t)
    }
    if (perTable.isEmpty) return (plain, Decision(NoPs, None))

    val chosen = safetyCache.getOrElseUpdate(template.name, chooseSafe(template.op, perTable))
    if (chosen.isEmpty) return (plain, Decision(NoPs, None))
    val parts = chosen.get

    // Reuse lookup: exact binding, else the Sec. 6 sufficient condition.
    val stored = sketchStore.getOrElse(template.name, Nil)
    val hit = stored.find(_._1 == binding).orElse(
      stored.find { case (oldB, _) => ReuseChecker.canReuse(template.op, oldB, binding, stats) })

    hit match {
      case Some((oldB, sketches)) =>
        val sketchCatalog = store.catalog(spark, sketches)
        if (!Use.revalidateTopK(q, sketchCatalog)) (plain, Decision(Fallback, Some(oldB)))
        else (ToSpark.compile(q, sketchCatalog), Decision(SketchUse, Some(oldB)))
      case None =>
        val shouldCapture = strategy match {
          case Eager => true
          case Adaptive(threshold) =>
            val n = missedUses.getOrElse(template.name, 0) + 1
            missedUses(template.name) = n
            n >= threshold
        }
        if (shouldCapture) {
          val (answer, sketches) = Capture.run(q, parts.values.toSeq, catalog)
          // Post-capture gate: a sketch covering most fragments cannot skip
          // anything — blacklist the template rather than storing it.
          if (sketches.values.forall(_.selectivity > MaxSelectivity)) notWorth += template.name
          else {
            sketchStore(template.name) = (binding -> sketches) :: stored
            missedUses(template.name) = 0
          }
          (answer, Decision(CaptureRun, None))
        } else (plain, Decision(NoPs, None))
    }
  }
}
