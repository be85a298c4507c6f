package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{Fixtures, SparkSpec, SynthData}
import repro.algebra._
import repro.stats.EquiDepth

class RangePartitionSpec extends AnyFunSuite {
  private val fState = RangePartition("cities", "state", TString, Fixtures.stateBounds.toIndexedSeq)
  private val fPopden = RangePartition("cities", "popden", TLong, Fixtures.popdenBounds.toIndexedSeq)

  test("Fig. 1e: state partition assigns the paper's fragments") {
    // f1=[AL,DE]→0, f2=[FL,MI]→1, f3=[MN,OK]→2, f4=[OR,WY]→3
    assert(fState.nFragments == 4)
    assert(fState.fragmentOf("AK") == 0)
    assert(fState.fragmentOf("CA") == 0)
    assert(fState.fragmentOf("FL") == 1)
    assert(fState.fragmentOf("MI") == 1)
    assert(fState.fragmentOf("NY") == 2)
    assert(fState.fragmentOf("TX") == 3)
    assert(fState.fragmentOf("WY") == 3)
  }
  test("Fig. 1e: popden partition g1/g2") {
    assert(fPopden.nFragments == 2)
    assert(fPopden.fragmentOf(2000L) == 0) // g1 = [1000,4000]
    assert(fPopden.fragmentOf(4000L) == 0)
    assert(fPopden.fragmentOf(4200L) == 1) // g2 = [4001,9000]
    assert(fPopden.fragmentOf(7000L) == 1)
  }
  test("binary search equals linear scan") {
    val rnd = new scala.util.Random(3)
    for (_ <- 1 to 30) {
      val bounds = (1 to 1 + rnd.nextInt(20)).map(_ => rnd.nextLong(1000)).distinct
        .sorted.toIndexedSeq
      val p = RangePartition("t", "a", TLong, bounds.map(_.asInstanceOf[Any]))
      for (_ <- 1 to 50) {
        val v = rnd.nextLong(1100) - 50
        assert(p.fragmentOf(v) == p.fragmentOfLinear(v), s"v=$v bounds=$bounds")
      }
    }
  }
  test("mergedRanges merges adjacent runs") {
    val p = RangePartition("t", "a", TLong, Vector(10L, 20L, 30L, 40L)) // 5 frags
    assert(p.mergedRanges(Seq(0, 1)) == Seq((None, Some(20L))))
    assert(p.mergedRanges(Seq(1, 2)) == Seq((Some(10L), Some(30L))))
    assert(p.mergedRanges(Seq(0, 2, 3)) == Seq((None, Some(10L)), (Some(20L), Some(40L))))
    assert(p.mergedRanges(Seq(4)) == Seq((Some(40L), None)))
    assert(p.mergedRanges(0 until 5) == Seq((None, None)))
  }
  test("toPred decodes to the fragment membership") {
    val p = RangePartition("t", "a", TLong, Vector(10L, 20L, 30L))
    val db: Lineage.Db = Map("t" -> (0L to 40L by 5L).map(v => Map[String, Any]("a" -> v)))
    val tref = TableRef("t", Seq("a" -> TLong))
    for (frags <- Seq(Seq(0), Seq(1, 2), Seq(0, 3), Seq(3), Seq(0, 1, 2, 3))) {
      val rows = Lineage.result(Select(p.toPred(frags), tref), db)
      val expected = db("t").filter(r => frags.contains(p.fragmentOf(r("a"))))
      assert(rows.toSet == expected.toSet, s"frags=$frags")
    }
  }
  test("toPred of empty sketch selects nothing; full selects all") {
    val p = RangePartition("t", "a", TLong, Vector(10L))
    val db: Lineage.Db = Map("t" -> Seq(Map[String, Any]("a" -> 5L), Map[String, Any]("a" -> 15L)))
    val tref = TableRef("t", Seq("a" -> TLong))
    assert(Lineage.result(Select(p.toPred(Seq.empty), tref), db).isEmpty)
    assert(Lineage.result(Select(p.toPred(Seq(0, 1)), tref), db).size == 2)
  }
}

class RangePartitionSparkSpec extends SparkSpec {
  test("toColumn filter matches fragmentOf on the cities table") {
    val df = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
    val p = RangePartition("cities", "state", TString, Fixtures.stateBounds.toIndexedSeq)
    for (frags <- Seq(Seq(0), Seq(2, 3), Seq(0, 2))) {
      val got = df.filter(p.toColumn(frags)).select("state").collect().map(_.getString(0)).toSet
      val exp = Fixtures.citiesRows.map(_(2).asInstanceOf[String])
        .filter(s => frags.contains(p.fragmentOf(s))).toSet
      assert(got == exp, s"frags=$frags")
    }
  }
  test("caseColumn assigns the fragment fragmentOf assigns, on every cities row") {
    val df = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
    for (p <- Seq(RangePartition("cities", "state", TString, Fixtures.stateBounds.toIndexedSeq),
                  RangePartition("cities", "popden", TLong, Fixtures.popdenBounds.toIndexedSeq))) {
      val got = df.select(p.caseColumn(df(p.attr))).collect().map(_.getInt(0)).toSeq
      val i = Fixtures.citiesSchema.indexWhere(_._1 == p.attr)
      assert(got == Fixtures.citiesRows.map(r => p.fragmentOf(r(i))), s"attr=${p.attr}")
    }
  }
  test("equiDepth produces roughly equal-depth numeric fragments") {
    val df = SynthData.uniformKeys(spark, 20000, 1000000, seed = 5)
    val p = RangePartition.equiDepth(df, "t", "k", TLong, 16)
    assert(p.nFragments >= 12 && p.nFragments <= 16)
    val counts = (0 until p.nFragments).map { f =>
      df.filter(p.toColumn(Seq(f))).count()
    }
    val avg = counts.sum.toDouble / counts.size
    assert(counts.forall(c => c > avg * 0.5 && c < avg * 2.0), s"counts=$counts")
    assert(counts.sum == 20000, "fragments partition the table")
  }
  test("equiDepth on strings") {
    val df = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
    val p = RangePartition.equiDepth(df, "cities", "state", TString, 3)
    assert(p.nFragments >= 2 && p.nFragments <= 3)
    val total = (0 until p.nFragments).map(f => df.filter(p.toColumn(Seq(f))).count()).sum
    assert(total == 7)
  }
  test("equiDepth with duplicates dedupes boundaries") {
    import spark.implicits._
    val df = Seq.fill(100)(5L).toDF("a")
    val p = RangePartition.equiDepth(df, "t", "a", TLong, 8)
    assert(p.nFragments == 1) // single heavy value — one fragment
  }
  test("minMax stats") {
    val df = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
    assert(EquiDepth.minMax(df, "popden") == ((2000L, 7000L)))
  }
}
