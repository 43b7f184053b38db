package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropChecks

/** §II-C unit cleaning, aliasing and volume conversion. */
class UnitTablesSpec extends AnyFunSuite with PropChecks {

  // --- cleaning: lemmatize → first word → letters only ------------------
  private val cleaning = Seq(
    "tbsp"                     -> "tablespoon",
    "tablespoon"               -> "tablespoon",
    "tablespoons"              -> "tablespoon",
    "Tablespoons"              -> "tablespoon",
    "tsp"                      -> "teaspoon",
    "teaspoons"                -> "teaspoon",
    "cup"                      -> "cup",
    "cups"                     -> "cup",
    "cup, chopped"             -> "cup",
    "cup (8 fl oz)"            -> "cup",
    "cup (not packed)"         -> "cup",
    "lb"                       -> "pound",
    "pound"                    -> "pound",
    "pounds"                   -> "pound",
    "oz"                       -> "ounce",
    "ounces"                   -> "ounce",
    "g"                        -> "gram",
    "grams"                    -> "gram",
    "kg"                       -> "kilogram",
    "pat (1\" sq, 1/3\" high)" -> "pat",   // the paper's noisy-unit example
    "stick"                    -> "stick",
    "cloves"                   -> "clove",
    "small"                    -> "size",
    "medium (2-1/2\" dia)"     -> "size",
    "large (3-1/4\" dia)"      -> "size",
    "slice (1 oz)"             -> "slice",
    "can (10.75 oz)"           -> "can",
    "quart"                    -> "quart",
    "sprigs"                   -> "sprig",
  )
  cleaning.foreach { case (raw, std) =>
    test(s"'$raw' standardizes to '$std'") { assert(UnitTables.standardize(raw) == std) }
  }

  test("empty/null/non-alpha units standardize to empty string") {
    assert(UnitTables.standardize("") == "")
    assert(UnitTables.standardize(null) == "")
    assert(UnitTables.standardize("1/2") == "")
    assert(UnitTables.standardize("  ") == "")
  }

  test("sizes small/medium/large are all one equivalent unit") {
    assert(Seq("small", "medium", "large").map(UnitTables.standardize).distinct == Seq("size"))
  }

  // --- volume conversion -------------------------------------------------
  test("1 cup is 16 tablespoons (paper's conversion-table example)") {
    val ratio = UnitTables.volumeMl("cup") / UnitTables.volumeMl("tablespoon")
    assert(math.abs(ratio - 16.0) < 0.01)
  }

  test("1 cup is 48 teaspoons (paper's conversion-table example)") {
    val ratio = UnitTables.volumeMl("cup") / UnitTables.volumeMl("teaspoon")
    assert(math.abs(ratio - 48.0) < 0.01)
  }

  test("butter teaspoon derived from cup=227g is ~4.73g (paper §III: ~35 kcal)") {
    val tsp = UnitTables.convertVolumetric("cup", 227.0, "teaspoon").get
    assert(math.abs(tsp - 4.729) < 0.01)
    // 717 kcal/100g * 4.73 g ≈ 33.9 kcal — the paper's "1 teaspoon of butter
    // is equivalent to 35 calories" context for the 36.42 error.
    assert(math.abs(tsp * 7.17 - 35.0) < 2.0)
  }

  test("conversion with unknown unit yields None") {
    assert(UnitTables.convertVolumetric("cup", 227.0, "clove").isEmpty)
    assert(UnitTables.convertVolumetric("stick", 113.0, "teaspoon").isEmpty)
  }

  test("mass units are exact") {
    assert(UnitTables.massGrams("pound") == 453.592)
    assert(UnitTables.massGrams("ounce") == 28.3495)
    assert(UnitTables.massGrams("gram") == 1.0)
    assert(UnitTables.massGrams("kilogram") == 1000.0)
  }

  test("isVolumetric classifies correctly") {
    assert(UnitTables.isVolumetric("cup"))
    assert(UnitTables.isVolumetric("teaspoon"))
    assert(!UnitTables.isVolumetric("pound"))
    assert(!UnitTables.isVolumetric("size"))
  }

  test("property: volumetric conversion round-trips") {
    val units = UnitTables.volumeMl.keys.toSeq
    checkProp(Prop.forAll(Gen.oneOf(units), Gen.oneOf(units), Gen.choose(1.0, 500.0)) {
      (a, b, grams) =>
        val there = UnitTables.convertVolumetric(a, grams, b).get
        val back  = UnitTables.convertVolumetric(b, there, a).get
        math.abs(back - grams) < 1e-6
    })
  }

  test("property: standardize is idempotent") {
    val raws = cleaning.map(_._1)
    checkProp(Prop.forAll(Gen.oneOf(raws)) { raw =>
      val once = UnitTables.standardize(raw)
      UnitTables.standardize(once) == once
    })
  }

  test("alias map values are themselves standard (closed under aliasing)") {
    UnitTables.aliases.values.toSet.foreach { (v: String) =>
      assert(UnitTables.aliases.getOrElse(v, v) == v, s"alias target '$v' not canonical")
    }
  }
}
