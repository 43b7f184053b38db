package repro.core

import org.scalacheck.{Arbitrary, Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.{PropChecks, TestModels}
import repro.nlp.NerFeatures

/** §II-A tagging on hostile phrases: the trained model never throws and
  * gives every token one tag from the inventory.
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
}
