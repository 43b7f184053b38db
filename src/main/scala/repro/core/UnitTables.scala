package repro.core

import repro.nlp.Lemmatizer

/** Unit standardization and conversion tables (§II-C).
  *
  * Three resources the paper builds:
  *  - alias → standard-unit table ("tbsp" and "tablespoon" are the same unit,
  *    "lb" and "pound" are the same unit);
  *  - a volume conversion table in the spirit of the Book of Yields
  *    ("1 cup is equivalent to 48 teaspoons / 16 tablespoons");
  *  - size equivalence (small = medium = large, because of ambiguity).
  *
  * Raw unit strings are cleaned the way §II-C describes: lemmatize, take the
  * first word, strip everything but letters — so 'pat (1" sq, 1/3" high)'
  * cleans to "pat" and "cup, chopped" cleans to "cup".
  */
object UnitTables {

  /** Alias → standard unit. Keys and values are already clean (alpha-only). */
  val aliases: Map[String, String] = Map(
    "tbsp"       -> "tablespoon",
    "tbs"        -> "tablespoon",
    "tablespoon" -> "tablespoon",
    "tsp"        -> "teaspoon",
    "teaspoon"   -> "teaspoon",
    "c"          -> "cup",
    "cup"        -> "cup",
    "lb"         -> "pound",
    "pound"      -> "pound",
    "oz"         -> "ounce",
    "ounce"      -> "ounce",
    "floz"       -> "flounce",
    "fl"         -> "flounce", // "fl oz" first-word cleaning yields "fl"
    "g"          -> "gram",
    "gram"       -> "gram",
    "gr"         -> "gram",
    "kg"         -> "kilogram",
    "kilogram"   -> "kilogram",
    "ml"         -> "milliliter",
    "milliliter" -> "milliliter",
    "l"          -> "liter",
    "liter"      -> "liter",
    "litre"      -> "liter",
    "pt"         -> "pint",
    "pint"       -> "pint",
    "qt"         -> "quart",
    "quart"      -> "quart",
    "gallon"     -> "gallon",
    "gal"        -> "gallon",
    "pkg"        -> "package",
    "package"    -> "package",
    "pat"        -> "pat",
    "stick"      -> "stick",
    "clove"      -> "clove",
    "can"        -> "can",
    "slice"      -> "slice",
    "pinch"      -> "pinch",
    "dash"       -> "dash",
    "bunch"      -> "bunch",
    "sprig"      -> "sprig",
    "head"       -> "head",
    "stalk"      -> "stalk",
    "piece"      -> "piece",
    "jar"        -> "jar",
    "bottle"     -> "bottle",
    "serving"    -> "serving",
    // Sizes appear as units on both sides; all three are equivalent (§II-C).
    "small"      -> "size",
    "medium"     -> "size",
    "large"      -> "size",
  )

  /** Milliliters per standard volumetric unit — the conversion table used to
    * derive units absent from the USDA weight list for a food.
    */
  val volumeMl: Map[String, Double] = Map(
    "teaspoon"   -> 4.92892,
    "tablespoon" -> 14.7868,
    "flounce"    -> 29.5735,
    "cup"        -> 236.588,
    "pint"       -> 473.176,
    "quart"      -> 946.353,
    "gallon"     -> 3785.41,
    "milliliter" -> 1.0,
    "liter"      -> 1000.0,
  )

  /** Grams per standard mass unit — exact, no food-specific weight needed. */
  val massGrams: Map[String, Double] = Map(
    "gram"     -> 1.0,
    "kilogram" -> 1000.0,
    "ounce"    -> 28.3495,
    "pound"    -> 453.592,
  )

  /** §II-C cleaning: lemmatize, first word, letters only, lowercase, then
    * resolve through the alias table. Returns "" when nothing survives.
    */
  def standardize(rawUnit: String): String = {
    if (rawUnit == null) return ""
    val first = rawUnit.trim.toLowerCase.split("[\\s,(]+").headOption.getOrElse("")
    val alpha = first.filter(_.isLetter)
    if (alpha.isEmpty) ""
    else {
      val lemmatized = Lemmatizer.lemma(alpha)
      aliases.getOrElse(lemmatized, aliases.getOrElse(alpha, lemmatized))
    }
  }

  /** True when the standard unit is volumetric and convertible. */
  def isVolumetric(stdUnit: String): Boolean = volumeMl.contains(stdUnit)

  /** Convert grams known for one volumetric unit into grams for another,
    * using the constant volume ratio (density cancels): e.g. butter has
    * cup = 227 g, so teaspoon = 227 × (4.929 / 236.588) ≈ 4.73 g.
    */
  def convertVolumetric(knownUnit: String, knownGrams: Double, targetUnit: String): Option[Double] =
    for {
      kv <- volumeMl.get(knownUnit)
      tv <- volumeMl.get(targetUnit)
    } yield knownGrams * (tv / kv)
}
