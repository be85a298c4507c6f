package perfbench

import org.apache.spark.sql.Row

/** Answer check: a PBDS result must equal the No-PS result of the same
  * instance as a multiset of rows. Doubles compare with a relative
  * tolerance, because pruning changes the order in which sums add up.
  */
object Answers {
  private val RelTol = 1e-9

  private def norm(v: Any): Any = v match {
    case f: java.lang.Float         => f.doubleValue
    case b: java.math.BigDecimal    => b.doubleValue
    case x                          => x
  }

  private def sortKey(v: Any): String = v match {
    case d: Double => f"$d%.6e"
    case null      => "\u0000"
    case x         => x.toString
  }

  private def close(a: Any, b: Any): Boolean = (a, b) match {
    case (x: Double, y: Double) =>
      x == y || (x.isNaN && y.isNaN) ||
        math.abs(x - y) <= RelTol * math.max(math.abs(x), math.abs(y))
    case _ => a == b
  }

  private def rowsClose(a: IndexedSeq[Any], b: IndexedSeq[Any]): Boolean =
    a.size == b.size && a.indices.forall(i => close(a(i), b(i)))

  /** Every value of every row, normalised; reading them all is also the
    * sink that consumes each column of the collected result.
    */
  def normalise(rows: Array[Row]): IndexedSeq[IndexedSeq[Any]] =
    rows.toIndexedSeq.map(r => (0 until r.length).map(i => norm(r.get(i))))

  def sameMultiset(a: IndexedSeq[IndexedSeq[Any]], b: IndexedSeq[IndexedSeq[Any]]): Boolean = {
    if (a.size != b.size) return false
    def sorted(xs: IndexedSeq[IndexedSeq[Any]]) = xs.sortBy(_.map(sortKey).mkString("\u0001"))
    val (sa, sb) = (sorted(a), sorted(b))
    sa.indices.forall(i => rowsClose(sa(i), sb(i))) || {
      // Rounding in the sort key can order near-equal doubles differently:
      // fall back to matching each row against any unmatched row.
      val used = Array.fill(b.size)(false)
      a.forall { x =>
        val j = b.indices.find(j => !used(j) && rowsClose(x, b(j)))
        j.foreach(used(_) = true)
        j.isDefined
      }
    }
  }
}
