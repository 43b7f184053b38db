package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropChecks
import repro.data.UsdaData

/** The §II-C chain on hostile input, without Spark: [[UnitMatcher.firstPass]]
  * and [[UnitMatcher.finish]] never throw and never produce an implausible
  * line, and a first-pass weight always comes with a non-empty unit.
  */
class UnitChainPropSpec extends AnyFunSuite with PropChecks {

  private val digits400 = "9" * 400

  private val quantity: Gen[String] = Gen.frequency(
    1 -> Gen.const(null),
    3 -> Gen.oneOf("", " ", digits400, s"$digits400.5", s"1-$digits400", s"$digits400 1/2", s"1/$digits400",
                   "0/0", "1 0/0", "n/0", "abc", "½", "1e400", "NaN", "-1", "1 to 2", "500 1"),
    2 -> Gen.choose(0, 100000).map(_.toString),
    2 -> Gen.zip(Gen.choose(0, 1000), Gen.choose(0, 9)).map { case (n, d) => s"$n/$d" },
    2 -> Gen.asciiPrintableStr,
    1 -> Gen.numStr)

  private val unit: Gen[String] = Gen.frequency(
    1 -> Gen.const(null),
    4 -> Gen.oneOf(("" +: "cup, chopped" +: "pat (1\" sq)" +: UnitTables.aliases.keys.toSeq).sorted),
    2 -> Gen.asciiPrintableStr)

  private val size: Gen[String] = Gen.oneOf(Gen.const(null), Gen.oneOf("", "small", "large", " "), Gen.alphaStr)

  private val ndbId: Gen[Option[Long]] = Gen.frequency(
    1 -> Gen.const(None),
    1 -> Gen.oneOf(-1L, 0L, Long.MaxValue).map(Some(_)),
    4 -> Gen.oneOf(UsdaData.allFoods.map(_.ndbId)).map(Some(_)))

  private val modeUnit: Gen[String] = Gen.frequency(
    1 -> Gen.const(null),
    1 -> Gen.oneOf("", "furlong"),
    4 -> Gen.oneOf(UnitTables.aliases.values.toSeq.distinct.sorted))

  test("property: the chain never throws, and grams are null or finite in [0, 5 kg]") {
    checkProp(Prop.forAll(quantity, unit, size, ndbId, modeUnit) { (q, u, s, id, mode) =>
      val p = UnitMatcher.firstPass(ReferenceIndex.usda, q, u, s, id)
      val r = UnitMatcher.finish(ReferenceIndex.usda, id, p, mode)
      val ests = Seq(r.estKcal, r.estProtein, r.estFat, r.estCarb)
      // A first-pass weight always has a unit, so the fallback statistic needs no test for "".
      p.stdGramsPerUnit.forall(_ => p.stdUnit.nonEmpty) &&
      r.grams.forall(g => !g.isNaN && !g.isInfinite && g >= 0 && g <= UnitMatcher.MaxGramsPerLine) &&
        r.grams.isDefined == r.resolvedUnit.isDefined && r.grams.isDefined == r.gramsPerUnit.isDefined &&
        ests.forall(_.isEmpty || r.grams.isDefined)
    }, minTests = 2000)
  }
}
