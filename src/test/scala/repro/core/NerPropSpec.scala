package repro.core

import org.scalacheck.{Arbitrary, Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.{PropChecks, TestModels}
import repro.nlp.NerFeatures

/** §II-A tagging on hostile phrases: the trained model never throws and
  * gives every token one tag from the inventory; and the per-phrase chain
  * (extraction, J* matching, then §II-C) never throws nor yields an
  * implausible line.
  */
class NerPropSpec extends AnyFunSuite with PropChecks {

  private val word: Gen[String] = Gen.frequency(
    3 -> Gen.oneOf("\u0000", "½", ",", " , ", ",,", "1/2", "or", "cup", "", " "),
    2 -> Gen.asciiPrintableStr,
    2 -> Arbitrary.arbitrary[String])

  private val phrase: Gen[String] = Gen.frequency(
    1 -> Gen.const(null),
    3 -> word,
    4 -> Gen.listOfN(12, word).map(_.mkString(" ")))

  test("property: tagging hostile phrases never throws and gives one known tag per token") {
    val model = TestModels.ner
    checkProp(Prop.forAll(phrase) { s =>
      NerPipeline.extractPhrase(model, s)
      val tokens = if (s == null) IndexedSeq.empty else NerPipeline.tokenize(s)
      val tags   = model.tag(tokens)
      tags.length == tokens.length && tags.forall(NerFeatures.Tags.contains)
    }, minTests = 2000)
  }

  /** null, "" or a standard unit, as the name's most frequent unit. */
  private val modeUnit: Gen[String] = Gen.oneOf(null +: "" +: UnitTables.aliases.values.toSeq.distinct.sorted)

  test("property: a hostile phrase runs through extraction, matching and §II-C without throwing") {
    val index = ReferenceIndex.usda
    // NaN and the infinities fail one of the two comparisons.
    def finiteIn(x: Option[Double], max: Double) = x.forall(v => v >= 0 && v <= max)
    checkProp(Prop.forAll(phrase, modeUnit) { (s, mode) =>
      val e    = NerPipeline.extractPhrase(TestModels.ner, s)
      val best = index.best(e.name, e.state, e.temp, e.df, JaccardMatcher.Modified)
      val p    = UnitMatcher.firstPass(index, e.quantity, e.unit, e.size, best.map(_.ndbId))
      val r    = UnitMatcher.finish(index, best.map(_.ndbId), p, mode)
      val ests = Seq(r.estKcal, r.estProtein, r.estFat, r.estCarb)
      finiteIn(r.grams, UnitMatcher.MaxGramsPerLine) &&
        ests.forall(est => finiteIn(est, Double.MaxValue) && (est.isEmpty || (r.grams.isDefined && best.isDefined))) &&
        r.unitResolved == r.grams.isDefined && r.nameMapped == best.isDefined
    }, minTests = 2000)
  }
}
