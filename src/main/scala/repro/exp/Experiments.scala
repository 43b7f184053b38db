package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.core._
import repro.data.{RecipeData, UsdaData}
import repro.nlp._

/** Shared implementations of the paper's evaluation artifacts (Tables I, III,
  * IV, Figure 2, and the §III result scalars). Jobs (spark-submit) and the
  * bench suites both call these, so every reported number has exactly one
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
    * Returns the model plus the held-out test F1.
    */
  def trainNer(spark: SparkSession, nPhrases: Int = 8800, epochs: Int = 8,
               seed: Long = 99): (NerModel, Double, Seq[NerTrainer.Labeled]) = {
    import spark.implicits._
    val corpus = RecipeData.labeledCorpus(spark, nPhrases, seed)
      .withColumn("id", monotonically_increasing_id())
      .cache()
    // Paper split: 6612 train / 2188 test ≈ 0.751.
    val split = CorpusSelector.split(spark, corpus.toDF(), k = 8, trainFrac = 0.751, seed = seed)
      .select($"id", $"split", $"tokens", $"tags").collect()
    def labeled(rows: Seq[org.apache.spark.sql.Row]) = rows.map { r =>
      NerTrainer.Labeled(r.getSeq[String](2).toIndexedSeq, r.getSeq[String](3).toIndexedSeq)
    }
    val train = labeled(split.filter(_.getString(1) == "train").toSeq)
    val test  = labeled(split.filter(_.getString(1) == "test").toSeq)
    val model = NerTrainer.train(train, epochs, seed)
    val f1    = NerTrainer.evaluate(model, test).f1
    (model, f1, train ++ test)
  }

  /** Table I: NER extraction of the Piroszhki phrases. */
  def table1(spark: SparkSession, model: NerModel): DataFrame = {
    import spark.implicits._
    PiroszhkiPhrases.map { p =>
      val e = NerPipeline.extractPhrase(model, p)
      (p, e.name, e.state, e.quantity, e.unit, e.temp, e.df, e.size)
    }.toDF("phrase", "name", "state", "quantity", "unit", "temp", "df", "size")
  }

  /** Table III: matched description under modified vs vanilla Jaccard for the
    * paper's ingredient rows, with the paper's reported matches alongside.
    */
  def table3(spark: SparkSession): DataFrame = {
    import spark.implicits._
    val index = ReferenceIndex.collect(Some(UsdaData.foods(spark)), None)
    def best(name: String, state: String, metric: JaccardMatcher.Metric): String =
      index.best(name, state, "", "", metric).fold("(unmapped)")(c => index.foods(c.ndbId).description)
    TableIIIRows.map { case (n, s, paperMod, paperVan) =>
      (n, s, best(n, s, JaccardMatcher.Modified), paperMod, best(n, s, JaccardMatcher.Vanilla), paperVan)
    }.toDF("name", "state", "modifiedJI", "paperModifiedJI", "vanillaJI", "paperVanillaJI")
  }

  /** Table IV: the cleaned ingredient-unit relations for Butter,salted. */
  def table4(spark: SparkSession): DataFrame = {
    import spark.implicits._
    val butter = UsdaData.allFoods.find(_.ndbId == 1L).get.description
    UsdaData.allWeights.filter(_.ndbId == 1L).sortBy(_.seq).map { w =>
      (butter, w.seq, w.amount, UnitTables.standardize(w.unit), w.grams,
       BigDecimal(w.grams / w.amount).setScale(2, BigDecimal.RoundingMode.HALF_UP).toDouble)
    }.toDF("ingredient", "seq", "amount", "unit", "grams", "gram_per_amount")
  }

  /** Figure 2 (as a table): distribution of recipes over the percentage of
    * their ingredients mapped — at name level and at name+unit level.
    */
  def fig2(spark: SparkSession, perRecipe: DataFrame): DataFrame = {
    import spark.implicits._
    def bucketed(pctCol: String, label: String) =
      perRecipe
        .withColumn("bucket",
          when(col(pctCol) >= 100.0, lit("100"))
            .otherwise(concat((floor(col(pctCol) / 10) * 10).cast("int"),
                              lit("-"), (floor(col(pctCol) / 10) * 10 + 10).cast("int"))))
        .groupBy("bucket").agg(count(lit(1)).as("recipes"))
        .withColumn("level", lit(label))
    bucketed("pctNameMapped", "ingredient name")
      .unionByName(bucketed("pctFullyMapped", "ingredient + unit"))
      .withColumn("pctOfRecipes",
        round(col("recipes") * 100.0 / sum(col("recipes")).over(
          Window.partitionBy(col("level"))), 2))
      .orderBy(col("level"), col("bucket"))
  }

  /** The §III result scalars, computed over a corpus at scale factor `sf`. */
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
      maePerServingKcal: Double,
      meanGoldKcalPerServing: Double)

  def results(spark: SparkSession, sf: Double, nerPhrases: Int = 8800,
              cvFolds: Int = 5, seed: Long = 7): Results = {
    import spark.implicits._

    // --- NER (§II-A): cluster-selected split + k-fold CV -----------------
    val (model, holdoutF1, corpus) = trainNer(spark, nerPhrases, epochs = 8, seed = seed + 92)
    val cvF1s = NerTrainer.crossValidate(corpus, folds = cvFolds, epochs = 6, seed = seed + 17)

    val foods   = UsdaData.foods(spark).cache()
    val weights = UsdaData.weights(spark).cache()
    val truthLines = RecipeData.ingredientLines(spark, sf, seed).cache()
    val lines = truthLines.select("recipeId", "lineNo", "phrase", "servings")

    val perLine = NutritionEstimator.perLine(lines, model, foods, weights).cache()

    // --- unique-ingredient match rate (paper: 94.49%) ---------------------
    val unique = perLine.select("name", "state", "temp", "df").distinct().cache()
    val nUnique = unique.count()
    val nUniqueMapped = perLine.filter($"nameMapped")
      .select("name", "state", "temp", "df").distinct().count()

    // --- modified vs vanilla divergence (paper: 227 / 1000) ---------------
    val sample = unique
      .orderBy(xxhash64($"name", $"state", $"temp", $"df", lit(seed)))
      .limit(1000).as[(String, String, String, String)].collect()
    val index = ReferenceIndex.collect(Some(foods), None)
    def best(k: (String, String, String, String), metric: JaccardMatcher.Metric): Option[Long] =
      index.best(k._1, k._2, k._3, k._4, metric).map(_.ndbId)
    val divergent  = sample.count(k => best(k, JaccardMatcher.Modified) != best(k, JaccardMatcher.Vanilla)).toLong
    val sampleSize = sample.length.toLong

    // --- match accuracy on the most frequent ingredients (paper: 71.6%) ---
    val truthJoined = perLine
      .join(truthLines.select($"recipeId", $"lineNo", $"trueNdbId"),
            Seq("recipeId", "lineNo"))
      .filter($"trueNdbId" =!= -1L).cache()
    val topK = 5000
    val freqW = Window.orderBy($"freq".desc, $"name".asc, $"state".asc)
    val perIngredient = truthJoined
      .groupBy($"name", $"state", $"temp", $"df")
      .agg(count(lit(1)).as("freq"),
           first($"ndbId").as("matchedNdb"),
           mode($"trueNdbId").as("majorityTruth"))
      .withColumn("rk", row_number().over(freqW))
      .filter($"rk" <= topK).cache()
    val accTotal   = perIngredient.count()
    val accCorrect = perIngredient.filter($"matchedNdb" === $"majorityTruth").count()

    // --- per-serving calorie error on fully-mapped recipes (paper: 36.42) -
    val perRecipe = NutritionEstimator.perRecipe(perLine).cache()
    val gold = RecipeData.recipes(spark, sf, seed)
      .select($"recipeId", $"goldKcalPerServing")
    val full = perRecipe.filter($"nFullyMapped" === $"nLines").join(gold, "recipeId").cache()
    val nRecipes = perRecipe.count()
    val nFull    = full.count()
    val errRow = full.select(
      avg(abs($"estKcalPerServing" - $"goldKcalPerServing")).as("mae"),
      avg($"goldKcalPerServing").as("meanGold")).collect().head

    Results(
      nerHoldoutF1 = holdoutF1,
      nerCvF1s = cvF1s,
      nUniqueIngredients = nUnique,
      uniqueMatchRatePct = nUniqueMapped * 100.0 / math.max(1L, nUnique),
      divergenceSampled = divergent,
      divergenceSampleSize = sampleSize,
      accuracyTopKPct = accCorrect * 100.0 / math.max(1L, accTotal),
      accuracyTopK = accTotal,
      accuracyTopKCorrect = accCorrect,
      nRecipes = nRecipes,
      nFullyMappedRecipes = nFull,
      maePerServingKcal = errRow.getDouble(0),
      meanGoldKcalPerServing = errRow.getDouble(1))
  }

  /** Per-recipe estimates at scale `sf` with a freshly trained model —
    * convenience for Figure 2 and the scaling bench.
    */
  def estimateCorpus(spark: SparkSession, sf: Double, model: NerModel,
                     seed: Long = 7): DataFrame = {
    val lines = RecipeData.ingredientLines(spark, sf, seed)
      .select("recipeId", "lineNo", "phrase", "servings")
    NutritionEstimator.estimate(lines, model,
      UsdaData.foods(spark), UsdaData.weights(spark))
  }

  /** Render a DataFrame as a fixed-width text table (driver-side, small). */
  def render(df: DataFrame, n: Int = 50): String = {
    val sb = new StringBuilder
    val rows = df.limit(n).collect()
    val cols = df.columns
    val widths = cols.indices.map { i =>
      (cols(i).length +: rows.map(r => Option(r.get(i)).fold(1)(_.toString.length))).max.min(60)
    }
    def line(vals: Seq[String]) = sb.append(
      vals.zip(widths).map { case (v, w) => v.take(60).padTo(w, ' ') }.mkString("| ", " | ", " |\n"))
    line(cols.toSeq)
    line(widths.map("-" * _))
    rows.foreach(r => line(cols.indices.map(i => Option(r.get(i)).fold("∅")(_.toString))))
    sb.toString
  }
}
