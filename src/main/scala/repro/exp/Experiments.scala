package repro.exp

import org.apache.spark.sql.{DataFrame, Dataset, Encoders, SparkSession}
import org.apache.spark.sql.functions._

import repro.core._
import repro.data.{RecipeData, UsdaData}
import repro.nlp._

/** Shared implementations of the paper's evaluation artifacts (Tables I, III,
  * IV, Figure 2, and the §III result scalars). `ResultsJob` prints them and
  * `GoldenSpec` pins them, so every reported number has exactly one
  * definition.
  */
object Experiments {

  /** The twelve Piroszhki ingredient phrases of paper Table I, verbatim. */
  val PiroszhkiPhrases: Seq[String] = Seq(
    "1/2 lb lean ground beef",
    "1 small onion , finely chopped",
    "1 hard-cooked egg , finely chopped",
    "1 tablespoon fresh dill weed",
    "1/2 teaspoon salt , freshly ground",
    "1/8 teaspoon black pepper , minced",
    "3/4 cup butter or 3/4 cup margarine , softened",
    "2 cups all-purpose flour",
    "1 teaspoon salt",
    "1/2 cup low-fat sour cream",
    "1 egg yolk",
    "1 tablespoon cold water",
  )

  /** Table III ingredient inputs (name, state) and the paper's reported
    * matches under each metric, for side-by-side printing.
    */
  val TableIIIRows: Seq[(String, String, String, String)] = Seq(
    ("red lentils", "", "Lentils, pink or red, raw", "Cherries, sour, red, raw"),
    ("roma tomato", "quartered", "Soup, tomato beef with noodle, canned, condensed", "Soup, tomato, canned, condensed"),
    ("coriander", "ground", "Coriander (cilantro) leaves, raw", "Spices, coriander leaf, dried"),
    ("tomato paste", "", "Tomato products, canned, paste, without salt added", "Soup, tomato, canned, condensed"),
    ("vegetable broth", "", "Soup, vegetable with beef broth, canned, condensed", "Soup, vegetable broth, ready to serve"),
    ("fava beans", "", "Broadbeans (fava beans), mature seeds, raw", "Beans, fava, in pod, raw"),
    ("cayenne pepper", "ground", "Spices, pepper, red or cayenne", "Spices, pepper, black"),
    ("chicken with giblets", "", "Chicken, broilers or fryers, meat and skin and giblets and neck, raw", "Fast foods, quesadilla, with chicken"),
    ("sesame seeds", "", "Salad dressing, sesame seed dressing, regular", "Seeds, sesame seeds, whole, dried"),
  )

  /** Train the production NER model: generate a labeled corpus, select
    * train/test via POS-vector clustering (§II-A), train on the train split.
    * Plain Scala on the driver, except the KMeans fit. Returns the model, the
    * held-out test F1 and the corpus as train ++ test.
    */
  def trainNer(spark: SparkSession, nPhrases: Int = 8800, epochs: Int = 8,
               seed: Long = 99): (NerModel, Double, Seq[NerTrainer.Labeled]) = {
    val corpus = RecipeData.labeledCorpus(nPhrases, seed)
      .map(l => NerTrainer.Labeled(l.tokens.toIndexedSeq, l.tags.toIndexedSeq))
    // Paper split: 6612 train / 2188 test ≈ 0.751.
    val (trainIds, testIds) = CorpusSelector.split(spark, corpus.map(_.tokens), k = 8, trainFrac = 0.751, seed = seed)
    val train = trainIds.map(corpus)
    val test  = testIds.map(corpus)
    val model = NerTrainer.train(train, epochs, seed)
    val f1    = NerTrainer.evaluate(model, test).f1
    (model, f1, train ++ test)
  }

  /** One row of Table I: a Piroszhki phrase and its extraction. */
  final case class Table1Row(phrase: String, name: String, state: String, quantity: String,
                             unit: String, temp: String, df: String, size: String)

  /** Table I: NER extraction of the Piroszhki phrases. */
  def table1(model: NerModel): Seq[Table1Row] = PiroszhkiPhrases.map { p =>
    val e = NerPipeline.extractPhrase(model, p)
    Table1Row(p, e.name, e.state, e.quantity, e.unit, e.temp, e.df, e.size)
  }

  /** One row of Table III: an ingredient key, its match under each metric and the paper's. */
  final case class Table3Row(name: String, state: String, modifiedJI: String, paperModifiedJI: String,
                             vanillaJI: String, paperVanillaJI: String)

  /** Table III: matched description under modified vs vanilla Jaccard for the
    * paper's ingredient rows, with the paper's reported matches alongside.
    */
  def table3: Seq[Table3Row] = {
    val index = ReferenceIndex.usda
    def best(name: String, state: String, metric: JaccardMatcher.Metric): String =
      index.best(name, state, "", "", metric).fold("(unmapped)")(c => index.foods(c.ndbId).description)
    TableIIIRows.map { case (n, s, paperMod, paperVan) =>
      Table3Row(n, s, best(n, s, JaccardMatcher.Modified), paperMod, best(n, s, JaccardMatcher.Vanilla), paperVan)
    }
  }

  /** Rows of [[table3]] whose modified and whose vanilla match equal the paper's. */
  def agreement(table: Seq[Table3Row]): (Int, Int) =
    (table.count(r => r.modifiedJI == r.paperModifiedJI), table.count(r => r.vanillaJI == r.paperVanillaJI))

  /** One row of Table IV: a cleaned weight row of a food. */
  final case class Table4Row(ingredient: String, seq: Int, amount: Double, unit: String, grams: Double,
                             gram_per_amount: Double)

  /** Table IV: the cleaned ingredient-unit relations for Butter,salted. */
  def table4: Seq[Table4Row] = {
    val butter = UsdaData.allFoods.find(_.ndbId == 1L).get.description
    UsdaData.allWeights.filter(_.ndbId == 1L).sortBy(_.seq).map { w =>
      Table4Row(butter, w.seq, w.amount, UnitTables.standardize(w.unit), w.grams, round2(w.grams / w.amount))
    }
  }

  /** One row of Figure 2: the recipes of one mapping level whose mapped share falls in `bucket`. */
  final case class Fig2Row(bucket: String, recipes: Long, level: String, pctOfRecipes: Double)

  /** Figure 2 (as a table): distribution of recipes over the percentage of
    * their ingredients mapped — at name level and at name+unit level. Spark
    * counts the recipes per pair of buckets; the shares are driver arithmetic.
    */
  def fig2(perRecipe: DataFrame): Seq[Fig2Row] = {
    def bucket(pct: String) = {
      val lo = floor(col(pct) / 10) * 10
      when(col(pct) >= 100.0, lit("100")).otherwise(concat(lo.cast("int"), lit("-"), (lo + 10).cast("int")))
    }
    val counts = perRecipe.groupBy(bucket("pctNameMapped"), bucket("pctFullyMapped")).count().collect()
    def level(label: String, i: Int) = {
      val perBucket = counts.groupMapReduce(_.getString(i))(_.getLong(2))(_ + _)
      val total     = perBucket.values.sum
      perBucket.map { case (b, n) => Fig2Row(b, n, label, round2(n * 100.0 / total)) }
    }
    (level("ingredient name", 0) ++ level("ingredient + unit", 1)).toSeq.sortBy(r => (r.level, r.bucket))
  }

  /** Round half up to 0.01, as Spark's `round(_, 2)` does. */
  private def round2(x: Double): Double = BigDecimal(x).setScale(2, BigDecimal.RoundingMode.HALF_UP).toDouble

  /** The §III result scalars and Figure 2, computed over a corpus at scale factor `sf`.
    * The calorie error and mean gold are None when no recipe is fully mapped.
    */
  final case class Results(
      nerHoldoutF1: Double,
      nerCvF1s: Seq[Double],
      nUniqueIngredients: Long,
      uniqueMatchRatePct: Double,
      divergenceSampled: Long,
      divergenceSampleSize: Long,
      accuracyTopKPct: Double,
      accuracyTopK: Long,
      accuracyTopKCorrect: Long,
      nRecipes: Long,
      nFullyMappedRecipes: Long,
      fig2: Seq[Fig2Row],
      meanPctNameMapped: Double,
      meanPctFullyMapped: Double,
      maePerServingKcal: Option[Double],
      meanGoldKcalPerServing: Option[Double])

  /** An ingredient key, its match, its lines with a true food, their most frequent one, and a sample hash. */
  final case class IngredientKey(name: String, state: String, temp: String, df: String, ndbId: Option[Long],
                                 freq: Long, majorityTruth: Option[Long], hash: Long)

  /** One row per ingredient key of a per-line frame that keeps `trueNdbId` (−1: no true food).
    * `ndbId` is constant per key, since `perLine` joins the match back on the four key columns.
    */
  def ingredientKeys(perLine: DataFrame, seed: Long): Dataset[IngredientKey] = {
    val truth = when(col("trueNdbId") =!= -1L, col("trueNdbId"))
    perLine.groupBy((JaccardMatcher.KeyColumns :+ "ndbId").map(col): _*)
      .agg(count(truth).as("freq"), mode(truth).as("majorityTruth"))
      .withColumn("hash", xxhash64(JaccardMatcher.KeyColumns.map(col) :+ lit(seed): _*))
      .as(Encoders.product[IngredientKey])
  }

  /** The §III scalars and Figure 2 at scale factor `sf`, from one pass with `ner` as
    * [[trainNer]] returns it (CV re-splits its corpus).
    */
  def results(spark: SparkSession, sf: Double, ner: (NerModel, Double, Seq[NerTrainer.Labeled]),
              cvFolds: Int = 5, seed: Long = 7): Results = {
    import spark.implicits._

    // --- NER (§II-A): cluster-selected split + k-fold CV -----------------
    val (model, holdoutF1, corpus) = ner
    val cvF1s = NerTrainer.crossValidate(corpus, folds = cvFolds, epochs = 6, seed = seed + 17)

    val foods = UsdaData.foods(spark)
    val lines = RecipeData.ingredientLines(spark, sf, seed)
      .select("recipeId", "lineNo", "phrase", "servings", "trueNdbId")
    val perLine = NutritionEstimator.perLine(lines, model, foods, UsdaData.weights(spark)).cache()
    val keys    = ingredientKeys(perLine, seed).collect()

    // --- unique-ingredient match rate (paper: 94.49%) ---------------------
    val nUnique       = keys.length.toLong
    val nUniqueMapped = keys.count(_.ndbId.isDefined).toLong

    // --- modified vs vanilla divergence (paper: 227 / 1000) ---------------
    val sample = keys.sortBy(_.hash).take(1000)
    val index  = ReferenceIndex.usda
    def best(k: IngredientKey, m: JaccardMatcher.Metric) = index.best(k.name, k.state, k.temp, k.df, m).map(_.ndbId)
    val divergent = sample.count(k => best(k, JaccardMatcher.Modified) != best(k, JaccardMatcher.Vanilla)).toLong

    // --- match accuracy on the most frequent ingredients (paper: 71.6%) ---
    val topK       = keys.filter(_.freq > 0).sortBy(k => (-k.freq, k.name, k.state)).take(5000)
    val accCorrect = topK.count(k => k.ndbId.isDefined && k.ndbId == k.majorityTruth).toLong

    // --- Figure 2, and the per-serving calorie error on fully-mapped recipes (paper: 36.42)
    val full = $"nFullyMapped" === $"nLines"
    val perRecipe = NutritionEstimator.perRecipe(perLine)
      .join(RecipeData.recipes(spark, sf, seed).select("recipeId", "goldKcalPerServing"), "recipeId")
      .cache()
    val figure2 = fig2(perRecipe)
    val row = perRecipe
      .agg(count(lit(1)), count(when(full, 1)), avg("pctNameMapped"), avg("pctFullyMapped"),
           avg(when(full, abs($"estKcalPerServing" - $"goldKcalPerServing"))),
           avg(when(full, $"goldKcalPerServing")))
      .collect().head
    perRecipe.unpersist()
    perLine.unpersist()

    Results(
      nerHoldoutF1 = holdoutF1,
      nerCvF1s = cvF1s,
      nUniqueIngredients = nUnique,
      uniqueMatchRatePct = nUniqueMapped * 100.0 / math.max(1L, nUnique),
      divergenceSampled = divergent,
      divergenceSampleSize = sample.length.toLong,
      accuracyTopKPct = accCorrect * 100.0 / math.max(1, topK.length),
      accuracyTopK = topK.length.toLong,
      accuracyTopKCorrect = accCorrect,
      nRecipes = row.getLong(0),
      nFullyMappedRecipes = row.getLong(1),
      fig2 = figure2,
      meanPctNameMapped = row.getDouble(2),
      meanPctFullyMapped = row.getDouble(3),
      maePerServingKcal = Option(row.get(4)).map(_.asInstanceOf[Double]),
      meanGoldKcalPerServing = Option(row.get(5)).map(_.asInstanceOf[Double]))
  }

  /** `x` as `Double.toString` prints it, but never in E notation: 1.0E-5 prints as 0.00001. */
  def plain(x: Double): String = {
    val s = BigDecimal(x).bigDecimal.stripTrailingZeros.toPlainString
    if (s.contains('.')) s else s + ".0"
  }

  /** The §III result scalars as `ResultsJob` prints them, beside the paper's. */
  def report(sf: Double, r: Results): String = Seq(
    s"RESULTS (§III) at SF=${plain(sf)} — paper value in [brackets]",
    f"NER held-out F1:            ${r.nerHoldoutF1}%.4f  [0.95]",
    f"NER ${r.nerCvF1s.size}-fold CV mean F1:      ${r.nerCvF1s.sum / r.nerCvF1s.size}%.4f  [0.95]  folds=${r.nerCvF1s.map(f => f"$f%.3f").mkString(",")}",
    f"Unique ingredients:         ${r.nUniqueIngredients}",
    f"Unique-ingredient match:    ${r.uniqueMatchRatePct}%.2f%%  [94.49%%]",
    f"Modified≠vanilla matches:   ${r.divergenceSampled}/${r.divergenceSampleSize}  [227/1000]",
    f"Match accuracy (top-5000):  ${r.accuracyTopKPct}%.1f%% (${r.accuracyTopKCorrect}/${r.accuracyTopK})  [71.6%% (3580/5000)]",
    f"Recipes / fully mapped:     ${r.nRecipes} / ${r.nFullyMappedRecipes}  [118071 / 2482 evaluated]",
    s"Per-serving calorie MAE:    ${r.maePerServingKcal.fold("n/a")(m => f"$m%.2f")} kcal  [36.42]",
    s"Mean gold kcal/serving:     ${r.meanGoldKcalPerServing.fold("n/a")(g => f"$g%.1f")}",
  ).mkString("\n")

  /** Per-recipe estimates at scale `sf` with `model`, for the scaling bench and tests. */
  def estimateCorpus(spark: SparkSession, sf: Double, model: NerModel,
                     seed: Long = 7): DataFrame = {
    val lines = RecipeData.ingredientLines(spark, sf, seed)
      .select("recipeId", "lineNo", "phrase", "servings")
    NutritionEstimator.estimate(lines, model,
      UsdaData.foods(spark), UsdaData.weights(spark))
  }

  /** Render case-class rows as a fixed-width text table under their field names; no rows render as "". */
  def render(rows: Seq[Product]): String = {
    val cols   = rows.headOption.fold(Seq.empty[String])(_.productElementNames.toSeq)
    val cells  = rows.map(_.productIterator.map(v => Option(v).fold("∅")(_.toString)).toSeq)
    val widths = cols.indices.map(i => (cols(i).length +: cells.map(_(i).length)).max)
    def line(vals: Seq[String]) =
      vals.zip(widths).map { case (v, w) => v.padTo(w, ' ') }.mkString("| ", " | ", " |\n")
    if (rows.isEmpty) "" else (cols +: widths.map("-" * _) +: cells).map(line).mkString
  }
}
