package repro.data

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import scala.util.Random

import repro.core.UnitTables

/** Synthetic RecipeDB (substrate).
  *
  * The paper's corpus is 118,071 scraped recipes whose ingredient phrases are
  * noisy free text. We generate a corpus with the same phrase grammar —
  * "QTY [UNIT|SIZE] [TEMP|DF|STATE] NAME [, STATE]" plus the noise modes the
  * paper calls out (unit aliases 'tbsp'/'tablespoon', missing units, ranges
  * '2-4', mixed fractions '2 1/2', '500 g or 1 cup' dual statements, "or"
  * alternatives, region-centric unmappable ingredients) — but with full
  * ground truth per line: gold NER tags, the intended USDA food, grams and
  * calories. Scale: SF=1 ≡ 118,071 recipes (tests SF=0.01, benches SF=0.1).
  *
  * Ground truth substitutes for (i) the paper's manually tagged NER corpus,
  * (ii) their manual validation of 5000 matches, and (iii) the AllRecipes
  * third-party calorie labels (gold = truth × (1 ± 5%) deterministic noise,
  * standing in for physical variation).
  */
object RecipeData {

  /** One generated ingredient line with full ground truth. */
  final case class IngredientLine(
      recipeId: Long, lineNo: Int, phrase: String,
      tokens: Seq[String], tags: Seq[String],
      trueNdbId: Long,      // -1 when the ingredient has no USDA counterpart
      trueQty: Double,
      trueUnit: String,     // standardized unit, "" when the line has none
      trueGrams: Double,
      trueKcal: Double,
      servings: Int)

  val RecipesPerSf: Long = 118071L

  private lazy val foodById    = UsdaData.allFoods.map(f => f.ndbId -> f).toMap
  private lazy val weightsById = UsdaData.allWeights.groupBy(_.ndbId)
    .view.mapValues(_.sortBy(_.seq)).toMap
  private lazy val curatedAliases  = UsdaData.curatedAliases.toIndexedSeq
  private lazy val expandedAliases = UsdaData.expandedAliases.toIndexedSeq
  private lazy val unmappables     = UsdaData.unmappableNames.toIndexedSeq

  /** Expanded aliases grouped by the full ingredient key: the foods an
    * identical recipe-text name can denote (e.g. "carrot" covers every
    * preparation form of carrots).
    */
  private lazy val expandedGroups: IndexedSeq[IndexedSeq[UsdaData.Alias]] =
    expandedAliases.groupBy(a => (a.name, a.state, a.temp, a.df)).values
      .map(_.sortBy(_.ndbId).toIndexedSeq).toIndexedSeq.sortBy(_.head.ndbId)

  /** Pick an expanded-food alias the way recipe authors use names: each
    * ambiguous name has a *preferred* denotation (picked 70% of the time),
    * and for ~35% of names the preferred denotation is NOT the variant a
    * reference-database matcher would select (recipes saying "carrot" often
    * mean the cooked form) — this recreates the paper's observation that
    * 28.4% of frequent ingredients had "a better match available".
    */
  private def pickExpandedAlias(rng: Random): UsdaData.Alias = {
    val group = expandedGroups(rng.nextInt(expandedGroups.length))
    if (group.length == 1) group.head
    else {
      val key = group.head.name + "|" + group.head.df
      val preferredIdx =
        if (UsdaData.hash01(key + "pref") < 0.35)
          1 + math.min(group.length - 2, (UsdaData.hash01(key + "idx") * (group.length - 1)).toInt)
        else 0
      if (rng.nextDouble() < 0.7) group(preferredIdx)
      else group(rng.nextInt(group.length))
    }
  }

  // -------------------------------------------------------------------
  // Phrase assembly
  // -------------------------------------------------------------------

  private final case class Tok(text: String, tag: String)

  /** Render a standardized unit as recipe text (aliases, plural forms). */
  private def renderUnit(std: String, rng: Random): String = {
    val r = rng.nextDouble()
    std match {
      case "tablespoon" => if (r < 0.55) "tablespoon" else if (r < 0.8) "tbsp" else "tablespoons"
      case "teaspoon"   => if (r < 0.55) "teaspoon" else if (r < 0.8) "tsp" else "teaspoons"
      case "cup"        => if (r < 0.7) "cup" else "cups"
      case "pound"      => if (r < 0.5) "lb" else "pound"
      case "ounce"      => if (r < 0.5) "oz" else "ounce"
      case "gram"       => if (r < 0.6) "g" else "grams"
      case "kilogram"   => if (r < 0.5) "kg" else "kilogram"
      case "flounce"    => "floz" // single-token rendering keeps tags aligned
      case "size"       => "size"
      case other        => if (r < 0.8) other else other + "s"
    }
  }

  private def pluralize(noun: String): String =
    if (noun.endsWith("s") || noun.endsWith("sh") || noun.endsWith("ch")) noun
    else if (noun.endsWith("y") && noun.length > 2 && !"aeiou".contains(noun(noun.length - 2)))
      noun.dropRight(1) + "ies"
    else if (noun.endsWith("o")) noun + "es"
    else noun + "s"

  private val quantityChoices: Seq[(Double, String)] = Seq(
    1.0 -> "1", 2.0 -> "2", 3.0 -> "3", 4.0 -> "4",
    0.5 -> "1/2", 0.25 -> "1/4", 0.75 -> "3/4", 1.0 / 3 -> "1/3", 0.125 -> "1/8",
    1.5 -> "1 1/2", 2.5 -> "2 1/2", 1.25 -> "1 1/4",
    3.0 -> "2-4", 1.5 -> "1-2",
  )

  /** Pick a textual quantity and its parsed value. Multi-token quantities
    * ("2 1/2") yield one QUANTITY tag per token.
    */
  private def pickQuantity(rng: Random): (Double, Seq[Tok]) = {
    val (v, s) = quantityChoices(rng.nextInt(quantityChoices.length))
    (v, s.split(" ").toSeq.map(Tok(_, "QUANTITY")))
  }

  private sealed trait UnitPlan
  private case class ListedUnit(std: String, grams1: Double) extends UnitPlan
  private case class MassUnit(std: String) extends UnitPlan
  private case class ConvertedUnit(std: String, grams1: Double) extends UnitPlan
  private case class SizeUnit(word: String, grams1: Double) extends UnitPlan
  private case object NoUnit extends UnitPlan

  /** Choose how this line expresses its measure, with ground-truth grams for
    * amount=1 of the chosen measure.
    */
  private def planUnit(ndbId: Long, rng: Random): UnitPlan = {
    val ws = weightsById.getOrElse(ndbId, Seq.empty)
    val stdOf = ws.map(w => (w, UnitTables.standardize(w.unit)))
    val sized = stdOf.filter(_._2 == "size")
    val plain = stdOf.filter(_._2 != "size")
    val r = rng.nextDouble()
    if (r < 0.55 && plain.nonEmpty) {
      // Prefer early-seq rows: dominant units dominate, as in real recipes.
      val idx = math.min(plain.length - 1, (math.pow(rng.nextDouble(), 2) * plain.length).toInt)
      val (w, std) = plain(idx)
      ListedUnit(std, w.grams / w.amount)
    } else if (r < 0.62 && sized.nonEmpty) {
      val (w, _) = sized(rng.nextInt(sized.length))
      // The size word itself ("small onion") carries the measure.
      SizeUnit(w.unit.split("[\\s(]")(0), w.grams / w.amount)
    } else if (r < 0.77) {
      val std = Seq("gram", "ounce", "pound")(rng.nextInt(3))
      MassUnit(std)
    } else if (r < 0.85) {
      // A volumetric unit the USDA list lacks — forces table conversion.
      val vol = plain.find(p => UnitTables.isVolumetric(p._2))
      vol match {
        case Some((w, std)) =>
          val missing = Seq("teaspoon", "tablespoon", "cup", "pint")
            .filterNot(u => plain.exists(_._2 == u))
          if (missing.isEmpty) ListedUnit(std, w.grams / w.amount)
          else {
            val tgt = missing(rng.nextInt(missing.length))
            ConvertedUnit(tgt, UnitTables.convertVolumetric(std, w.grams / w.amount, tgt).get)
          }
        case None if plain.nonEmpty =>
          val (w, std) = plain(rng.nextInt(plain.length)); ListedUnit(std, w.grams / w.amount)
        case None => NoUnit
      }
    } else NoUnit
  }

  /** Truth grams for a line with no unit: the food's first weight row — the
    * author's implied default measure ("1 egg" means one large-ish egg).
    */
  private def defaultGrams(ndbId: Long): Double =
    weightsById.get(ndbId).flatMap(_.headOption).map(w => w.grams / w.amount).getOrElse(100.0)

  /** Generate one ingredient line. */
  private def genLine(recipeId: Long, lineNo: Int, servings: Int, rng: Random): IngredientLine = {
    if (rng.nextDouble() < 0.022) return genUnmappable(recipeId, lineNo, servings, rng)

    val alias =
      if (rng.nextDouble() < 0.65) curatedAliases(rng.nextInt(curatedAliases.length))
      else pickExpandedAlias(rng)
    val food = foodById(alias.ndbId)

    val (qty, qtyToks) = pickQuantity(rng)
    val plan           = planUnit(alias.ndbId, rng)

    val toks = Seq.newBuilder[Tok]
    toks ++= qtyToks

    var trueUnit  = ""
    var grams1    = 0.0
    var sizeWord  = ""
    plan match {
      case ListedUnit(std, g)    => trueUnit = std; grams1 = g
        toks += Tok(renderUnit(std, rng), "UNIT")
      case ConvertedUnit(std, g) => trueUnit = std; grams1 = g
        toks += Tok(renderUnit(std, rng), "UNIT")
      case MassUnit(std)         => trueUnit = std; grams1 = UnitTables.massGrams(std)
        toks += Tok(renderUnit(std, rng), "UNIT")
      case SizeUnit(word, g)     => trueUnit = "size"; grams1 = g; sizeWord = word
        toks += Tok(word, "SIZE")
      case NoUnit                => trueUnit = ""; grams1 = defaultGrams(alias.ndbId)
    }

    // TEMP and DRY/FRESH go before the name.
    if (alias.temp.nonEmpty) toks += Tok(alias.temp, "TEMP")
    if (alias.df.nonEmpty)   toks += Tok(alias.df, "DF")

    val stateToks   = alias.state.split(" ").filter(_.nonEmpty).toSeq
    val stateBefore = stateToks.nonEmpty && rng.nextDouble() < 0.4
    if (stateBefore) stateToks.foreach(w => toks += Tok(w, "STATE"))

    // NAME, with occasional pluralized head noun.
    val nameWords = alias.name.split(" ").toSeq
    val rendered =
      if (rng.nextDouble() < 0.3) nameWords.init :+ pluralize(nameWords.last) else nameWords
    rendered.foreach(w => toks += Tok(w, "NAME"))

    if (!stateBefore && stateToks.nonEmpty) {
      toks += Tok(",", "O")
      if (rng.nextDouble() < 0.25) toks += Tok(if (rng.nextBoolean()) "finely" else "freshly", "O")
      stateToks.foreach(w => toks += Tok(w, "STATE"))
    }

    // "or" alternative clause ("3/4 cup butter or 3/4 cup margarine").
    if (rng.nextDouble() < 0.03 && trueUnit.nonEmpty && trueUnit != "size") {
      val alt = curatedAliases(rng.nextInt(curatedAliases.length))
      toks += Tok("or", "O")
      qtyToks.foreach(t => toks += Tok(t.text, "QUANTITY"))
      toks += Tok(renderUnit(trueUnit, rng), "UNIT")
      alt.name.split(" ").foreach(w => toks += Tok(w, "NAME"))
    }

    // Dual-measure noise: "500 g or 1 cup ..." handled via threshold (§II-C).
    val all       = toks.result()
    val trueGrams = qty * grams1
    val trueKcal  = trueGrams * food.kcal100g / 100.0
    IngredientLine(recipeId, lineNo, all.map(_.text).mkString(" "),
      all.map(_.text), all.map(_.tag),
      alias.ndbId, qty, trueUnit, trueGrams, trueKcal, servings)
  }

  /** A region-centric ingredient with no USDA counterpart; its calories are
    * real (hidden truth) but the pipeline cannot map it.
    */
  private def genUnmappable(recipeId: Long, lineNo: Int, servings: Int, rng: Random): IngredientLine = {
    val name = unmappables(rng.nextInt(unmappables.length))
    val (qty, qtyToks) = pickQuantity(rng)
    val std  = Seq("teaspoon", "tablespoon", "cup")(rng.nextInt(3))
    val toks = qtyToks ++ Seq(Tok(renderUnit(std, rng), "UNIT")) ++
      name.split(" ").map(Tok(_, "NAME")).toSeq
    val grams    = qty * UnitTables.volumeMl(std) * 0.6
    val kcal100g = 250 + 200 * UsdaData.hash01(name)
    IngredientLine(recipeId, lineNo, toks.map(_.text).mkString(" "),
      toks.map(_.text), toks.map(_.tag),
      -1L, qty, std, grams, grams * kcal100g / 100.0, servings)
  }

  // -------------------------------------------------------------------
  // Public generators
  // -------------------------------------------------------------------

  /** The ingredient lines of recipe `recipeId`, a pure function of (recipeId, seed). */
  def recipe(recipeId: Long, seed: Long): Seq[IngredientLine] = {
    val rng      = new Random(seed * 1000003L + recipeId)
    val servings = 2 + rng.nextInt(7)
    val nLines   = 5 + rng.nextInt(8)
    (1 to nLines).map(i => genLine(recipeId, i, servings, rng))
  }

  /** The number of recipes at scale factor `sf` (at least one). */
  private def nRecipes(sf: Double): Long = math.max(1L, (RecipesPerSf * sf).toLong)

  /** All ingredient lines of a synthetic corpus at scale factor `sf`. */
  def ingredientLines(spark: SparkSession, sf: Double, seed: Long = 7): Dataset[IngredientLine] = {
    import spark.implicits._
    spark.range(nRecipes(sf)).as[Long].flatMap(recipe(_, seed))
  }

  /** The AllRecipes-style gold label's deterministic noise, a factor 1 ± 5%. */
  private def goldNoise(recipeId: Long): Double = 1.0 + (UsdaData.hash01(recipeId.toString + "gold") - 0.5) * 0.1

  /** Recipe-level truth and gold labels: total/per-serving true calories and
    * the AllRecipes-style gold label = truth × [[goldNoise]].
    */
  def recipes(spark: SparkSession, sf: Double, seed: Long = 7): DataFrame = {
    import spark.implicits._
    spark.range(nRecipes(sf)).as[Long].map { id =>
      val ls         = recipe(id, seed)
      val trueKcal   = ls.map(_.trueKcal).sum
      val perServing = trueKcal / ls.head.servings
      (id, ls.head.servings, trueKcal, ls.length.toLong, perServing, perServing * goldNoise(id))
    }.toDF("recipeId", "servings", "trueKcal", "nLines", "trueKcalPerServing", "goldKcalPerServing")
  }

  /** A labeled NER corpus of `n` phrases (tokens + gold tags), standing in
    * for the paper's manually tagged 6612+2188 phrases: the first `n` lines
    * of recipes 0, 1, 2, … — the first `n` rows of `ingredientLines`.
    */
  def labeledCorpus(n: Int, seed: Long = 99): IndexedSeq[IngredientLine] =
    Iterator.iterate(0L)(_ + 1).flatMap(recipe(_, seed)).take(n).toIndexedSeq
}
