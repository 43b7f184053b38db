package repro.nlp

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropChecks

/** §II-B(b): noun lemmatization before matching (WordNet-style rules). */
class LemmatizerSpec extends AnyFunSuite with PropChecks {

  private val cases = Seq(
    "apples"     -> "apple",
    "Apples"     -> "apple",
    "eggs"       -> "egg",
    "onions"     -> "onion",
    "tomatoes"   -> "tomato",
    "potatoes"   -> "potato",
    "berries"    -> "berry",
    "cherries"   -> "cherry",
    "leaves"     -> "leaf",
    "loaves"     -> "loaf",
    "halves"     -> "half",
    "radishes"   -> "radish",
    "boxes"      -> "box",
    "peaches"    -> "peach",
    "lentils"    -> "lentil",
    "seeds"      -> "seed",
    "cups"       -> "cup",
    "tablespoons"-> "tablespoon",
    "teaspoons"  -> "teaspoon",
    "grams"      -> "gram",
    "ounces"     -> "ounce",
    "pounds"     -> "pound",
    "shakes"     -> "shake",
    "spices"     -> "spice",
    "dices"      -> "dice",
    "beans"      -> "bean",
    "broilers"   -> "broiler",
    "fryers"     -> "fryer",
    "solids"     -> "solid",
    "giblets"    -> "giblet",
    "noodles"    -> "noodle",
  )
  cases.foreach { case (plural, singular) =>
    test(s"$plural lemmatizes to $singular") { assert(Lemmatizer.lemma(plural) == singular) }
  }

  private val invariants = Seq(
    "butter", "milk", "salt", "pepper", "flour", "water", "beef", "chicken",
    "glass", "molasses", "couscous", "asparagus", "citrus", "swiss", "basis",
    "raw", "with", "skin", "sesame",
  )
  invariants.foreach { w =>
    test(s"'$w' is left unchanged") { assert(Lemmatizer.lemma(w) == w) }
  }

  test("lemmatization lowercases") {
    assert(Lemmatizer.lemma("Apples") == "apple")
    assert(Lemmatizer.lemma("BUTTER") == "butter")
  }

  test("never behaves like an aggressive stemmer on -ing words") {
    assert(Lemmatizer.lemma("dressing") == "dressing")
    assert(Lemmatizer.lemma("seasoning") == "seasoning")
  }

  test("short tokens pass through") {
    assert(Lemmatizer.lemma("a") == "a")
    assert(Lemmatizer.lemma("of") == "of")
    assert(Lemmatizer.lemma("2%") == "2%")
  }

  test("property: lemmatization is idempotent") {
    val wordGen = Gen.oneOf(cases.map(_._1) ++ cases.map(_._2) ++ invariants)
    checkProp(Prop.forAll(wordGen) { w =>
      val once = Lemmatizer.lemma(w)
      Lemmatizer.lemma(once) == once
    })
  }

  test("property: output is lowercase") {
    checkProp(Prop.forAll(Gen.alphaStr.suchThat(_.nonEmpty)) { w =>
      Lemmatizer.lemma(w) == Lemmatizer.lemma(w).toLowerCase
    })
  }
}
