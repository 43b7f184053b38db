package repro.core

import org.apache.spark.sql.catalyst.expressions.ScalaUDF
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanExec
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestModels}
import repro.data.{RecipeData, UsdaData}

/** End-to-end pipeline: NER → match → units → per-recipe profiles. */
class NutritionEstimatorSpec extends SparkSpec {

  import spark.implicits._

  private lazy val foods   = UsdaData.foods(spark).cache()
  private lazy val weights = UsdaData.weights(spark).cache()
  private lazy val corpus  = RecipeData.ingredientLines(spark, sf = 0.001, seed = 11)
    .select("recipeId", "lineNo", "phrase", "servings").cache()
  private lazy val lineEst = NutritionEstimator.perLine(corpus, TestModels.ner, foods, weights).cache()
  private lazy val recipeEst = NutritionEstimator.perRecipe(lineEst).cache()

  test("a pass plans 4 shuffles and calls firstPass and best once") {
    val plan = NutritionEstimator.perRecipe(NutritionEstimator.perLine(corpus, TestModels.ner, foods, weights))
      .queryExecution.executedPlan match { case a: AdaptiveSparkPlanExec => a.initialPlan }
    val shuffles = plan.collect { case e: ShuffleExchangeExec => e }.size
    def udfNodes(name: String) = plan.collect {
      case n if n.expressions.exists(_.exists {
        case u: ScalaUDF => u.udfName.contains(name)
        case _           => false
      }) => n
    }.size
    assert(shuffles == 4, plan.treeString)
    assert(udfNodes("firstPass") == 1, plan.treeString)
    assert(udfNodes("best") == 1, plan.treeString)
  }

  test("perLine's plan calls finish once and no food UDF") {
    val plan = NutritionEstimator.perLine(corpus, TestModels.ner, foods, weights)
      .queryExecution.executedPlan match { case a: AdaptiveSparkPlanExec => a.initialPlan }
    val udfs = plan.flatMap(_.expressions.flatMap(_.collect { case u: ScalaUDF => u.udfName.getOrElse("") }))
    assert(udfs.count(_ == "finish") == 1, plan.treeString)
    assert(!udfs.contains("food"), plan.treeString)
  }

  test("perLine's plan calls extract once a line, through its cached NER frame") {
    // Uncached, the join's inferred isnotnull filters on the four keys inline
    // `extract` into both branches: 6 calls a line instead of 1.
    def extractCalls(plan: SparkPlan): Int = plan match {
      case a: AdaptiveSparkPlanExec => extractCalls(a.initialPlan)
      case p =>
        val own = p.collect { case n => n.expressions.map(_.collect {
          case u: ScalaUDF if u.udfName.contains("extract") => u
        }.size).sum }.sum
        val cached = p.collect { case s: InMemoryTableScanExec => s.relation }
          .distinctBy(_.cacheBuilder).map(r => extractCalls(r.cachedPlan)).sum
        own + cached
    }
    val plan = NutritionEstimator.perLine(corpus, TestModels.ner, foods, weights).queryExecution.executedPlan
    assert(extractCalls(plan) == 1, plan.treeString)
  }

  test("every input line appears exactly once in the per-line output") {
    assert(lineEst.count() == corpus.count())
    val dup = lineEst.groupBy("recipeId", "lineNo").count().filter($"count" > 1).count()
    assert(dup == 0)
  }

  test("most lines are name-mapped (paper: 94.49% of unique ingredients)") {
    val total  = lineEst.count().toDouble
    val mapped = lineEst.filter($"nameMapped").count().toDouble
    assert(mapped / total > 0.85, s"only ${mapped / total} name-mapped")
  }

  test("unmappable ingredients are never name-mapped") {
    val truth = RecipeData.ingredientLines(spark, 0.001, seed = 11)
      .select($"recipeId", $"lineNo", $"trueNdbId")
    val joined = lineEst.join(truth, Seq("recipeId", "lineNo"))
    val bad = joined.filter($"trueNdbId" === -1L && $"nameMapped").count()
    assert(bad == 0, s"$bad region-centric lines got mapped")
  }

  test("estimated calories are nonnegative and finite") {
    val rows = lineEst.filter($"estKcal".isNotNull).select("estKcal").collect()
    assert(rows.nonEmpty)
    rows.foreach { r =>
      val k = r.getDouble(0)
      assert(k >= 0 && !k.isNaN && !k.isInfinite)
    }
  }

  test("majority of fully-mapped lines land near ground-truth calories") {
    val truth = RecipeData.ingredientLines(spark, 0.001, seed = 11)
      .select($"recipeId", $"lineNo", $"trueKcal", $"trueNdbId")
    val joined = lineEst.filter($"fullyMapped")
      .join(truth.filter($"trueNdbId" =!= -1L), Seq("recipeId", "lineNo"))
      .select($"estKcal", $"trueKcal").collect()
    assert(joined.nonEmpty)
    val close = joined.count { r =>
      val est = r.getDouble(0); val tru = r.getDouble(1)
      math.abs(est - tru) <= math.max(15.0, tru * 0.25)
    }
    assert(close.toDouble / joined.length > 0.6,
      s"only $close/${joined.length} lines within tolerance")
  }

  test("per-recipe aggregation: counts and percentages are consistent") {
    recipeEst.collect().foreach { r =>
      val nLines = r.getAs[Long]("nLines")
      val nName  = r.getAs[Long]("nNameMapped")
      val nFull  = r.getAs[Long]("nFullyMapped")
      assert(nFull <= nName && nName <= nLines)
      assert(math.abs(r.getAs[Double]("pctNameMapped") - nName * 100.0 / nLines) < 1e-9)
      val perServing = r.getAs[Double]("estKcalPerServing")
      assert(math.abs(perServing - r.getAs[Double]("estKcal") / r.getAs[Int]("servings")) < 1e-9)
    }
  }

  test("per-recipe totals equal the sum of their lines (oracle)") {
    val perLineSmall = lineEst
      .select($"recipeId", $"servings",
        coalesce($"estKcal", lit(0.0)).as("estKcal")).cache()
    val agg = perLineSmall.groupBy("recipeId", "servings")
      .agg(round(sum($"estKcal"), 2).as("estKcal"))
      .select($"recipeId".cast("string").as("recipeId"),
              $"servings".cast("string").as("servings"), $"estKcal")
    repro.Oracle.assertEquivalent(
      agg,
      """SELECT recipeId, servings,
        |       ROUND(SUM(CAST(estKcal AS DOUBLE)), 2) AS estKcal
        |FROM lines GROUP BY recipeId, servings""".stripMargin,
      "lines" -> perLineSmall)
  }

  test("estimate() composes perLine and perRecipe") {
    val direct = NutritionEstimator.estimate(corpus, TestModels.ner, foods, weights)
    assert(direct.count() == recipeEst.count())
    assert(direct.columns.toSet == recipeEst.columns.toSet)
  }

  test("fully-mapped recipes exist and their per-serving error is bounded") {
    val truth = RecipeData.recipes(spark, 0.001, seed = 11)
      .select($"recipeId", $"goldKcalPerServing")
    val full = recipeEst.filter($"nFullyMapped" === $"nLines")
      .join(truth, "recipeId")
    val n = full.count()
    assert(n > 0, "no fully-mapped recipes at SF=0.001")
    val row = full
      .select(avg(abs($"estKcalPerServing" - $"goldKcalPerServing")).as("mae"),
              avg($"goldKcalPerServing").as("meanGold"))
      .collect().head
    val err = row.getDouble(0); val meanGold = row.getDouble(1)
    // The paper reports 36.42 kcal/serving (≈7% of a serving). At this tiny
    // test scale (SF=0.001, ~100 recipes, model trained on 1.5k phrases) the
    // estimate is noisy, so only a relative sanity bound is asserted here;
    // GoldenSpec pins the real number at SF 0.1.
    assert(err < meanGold * 0.30, s"per-serving MAE $err kcal vs mean serving $meanGold")
  }

  test("piroszhki-style phrases run through the whole pipeline") {
    val piroszhki = Seq(
      (1L, 1, "1/2 lb lean ground beef", 4),
      (1L, 2, "1 small onion , finely chopped", 4),
      (1L, 3, "1 tablespoon fresh dill weed", 4),
      (1L, 4, "1/2 teaspoon salt", 4),
      (1L, 5, "1/8 teaspoon black pepper", 4),
      (1L, 6, "3/4 cup butter , softened", 4),
      (1L, 7, "2 cups all-purpose flour", 4),
      (1L, 8, "1 egg yolk", 4),
      (1L, 9, "1 tablespoon cold water", 4),
    ).toDF("recipeId", "lineNo", "phrase", "servings")
    val out = NutritionEstimator.perLine(piroszhki, TestModels.ner, foods, weights)
    assert(out.count() == 9)
    val mapped = out.filter($"nameMapped").count()
    assert(mapped >= 7, s"only $mapped/9 mapped")
    val beef = out.filter($"lineNo" === 1).collect().head
    assert(Option(beef.getAs[String]("name")).exists(_.contains("beef")))
  }

  test("per-serving kcal is null when servings is null or not positive") {
    val lines = Seq[(Long, java.lang.Integer)]((1L, 4), (2L, 0), (3L, -3), (4L, null))
      .toDF("recipeId", "servings")
      .withColumn("nameMapped", lit(true)).withColumn("fullyMapped", lit(true))
      .withColumn("estKcal", lit(100.0)).withColumn("estProtein", lit(1.0))
      .withColumn("estFat", lit(1.0)).withColumn("estCarb", lit(1.0))
    val perServing = NutritionEstimator.perRecipe(lines).select("recipeId", "estKcalPerServing")
      .collect().map(r => r.getLong(0) -> Option(r.get(1))).toMap
    assert(perServing == Map(1L -> Some(25.0), 2L -> None, 3L -> None, 4L -> None))
  }

  test("a null phrase comes out once, unmapped") {
    assert(NerPipeline.extractPhrase(TestModels.ner, null) ==
      NerPipeline.Extracted("", "", "", "", "", "", ""))
    val lines = Seq[(Long, Int, String, Int)]((1L, 1, "1 cup butter", 2), (1L, 2, null, 2))
      .toDF("recipeId", "lineNo", "phrase", "servings")
    val out = NutritionEstimator.perLine(lines, TestModels.ner, foods, weights)
      .select("lineNo", "nameMapped").as[(Int, Boolean)].collect().sorted
    assert(out.toSeq == Seq(1 -> true, 2 -> false))
  }
}
