package repro

import org.apache.spark.sql.{DataFrame, Observation, Row}
import org.apache.spark.sql.functions._

import repro.core.{JaccardMatcher, NutritionEstimator, UnitMatcher}
import repro.data.{RecipeData, UsdaData}
import repro.exp.Experiments

/** The calls the pipeline benchmark (`perfbench/`) makes into the program,
  * made the same way at SF 0.001, so that a change to a signature, an
  * overload or an output column the benchmark reads fails here rather than
  * only when the benchmark runs.
  */
class BenchmarkContractSpec extends SparkSpec {

  import spark.implicits._

  /** The per-line columns the benchmark's checks read. */
  private val RowColumns = Seq(
    "recipeId", "lineNo", "ndbId", "resolvedUnit", "grams", "nameMapped", "fullyMapped",
    "estKcal", "estProtein", "estFat", "estCarb")

  private lazy val foods   = UsdaData.foods(spark)
  private lazy val weights = UsdaData.weights(spark)
  private lazy val lines   = RecipeData.ingredientLines(spark, sf = 0.001, seed = 1)
    .select("recipeId", "lineNo", "phrase", "servings").collect().toSeq
  private def input: DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(lines, 2), lines.head.schema)

  private def noop(df: DataFrame): Unit = df.write.format("noop").mode("overwrite").save()

  /** `perLine` computed once and held in an RDD, as the benchmark's layers receive it. */
  private lazy val perLine: DataFrame = {
    val df   = NutritionEstimator.perLine(input, TestModels.ner, foods, weights)
    val rows = df.collect().toSeq
    spark.catalog.clearCache()
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), df.schema)
  }

  test("a pass: perLine observed on the checked columns, then perRecipe") {
    val obs     = new Observation()
    val pl      = NutritionEstimator.perLine(input, TestModels.ner, foods, weights)
    val recipes = NutritionEstimator.perRecipe(
      pl.observe(obs, collect_list(struct(RowColumns.map(col): _*)).as("rows"))).collect()
    spark.catalog.clearCache()
    val rows = obs.get("rows").asInstanceOf[Seq[Row]]
    assert(rows.map(r => (r.getAs[Long]("recipeId"), r.getAs[Int]("lineNo"))).sorted ==
      lines.map(r => (r.getLong(0), r.getInt(1))).sorted)
    assert(recipes.map(_.getAs[Long]("nLines")).sum == lines.length)
    val kcal = rows.groupMapReduce(_.getAs[Long]("recipeId"))(
      r => Option(r.getAs[Any]("estKcal")).fold(0.0)(_.asInstanceOf[Double]))(_ + _)
    recipes.foreach(r => assert(math.abs(r.getAs[Double]("estKcal") - kcal(r.getAs[Long]("recipeId"))) < 1e-6))
    assert(rows.count(_.getAs[Boolean]("fullyMapped")) > rows.length / 2)
  }

  test("the layers: resolve on 13 columns, matching on a description-only reference") {
    val keys     = Seq("name", "state", "temp", "df").map(col)
    val ref      = foods.select("ndbId", "description")
    val uniq     = perLine.select(keys: _*).distinct().withColumn("ingId", xxhash64(keys: _*))
    val withFood = perLine.select(Seq("recipeId", "lineNo", "phrase", "servings", "name", "state", "quantity",
                                      "unit", "temp", "df", "size", "ndbId", "score").map(col): _*)
    val resolved = UnitMatcher.resolve(withFood, weights)
    noop(resolved)
    assert(resolved.filter($"unitResolved").count() == perLine.filter($"unitResolved").count())
    noop(JaccardMatcher.matchBest(uniq, ref, JaccardMatcher.Modified))
    assert(JaccardMatcher.scoreCandidates(uniq, ref).select("ingId").collect().length > uniq.count())
    val resolvedLines = perLine.filter(col("unitResolved")).select("lineNo").collect().length
    assert(resolvedLines > 0 && resolvedLines <= lines.length)
  }

  test("set-up and inputs: trainNer with named arguments, the corpus lines and their gold") {
    val trained = Experiments.trainNer(spark, nPhrases = 300, epochs = 2, seed = 99)
    assert(trained._3.size == 300)
    assert(trained._1.tag(IndexedSeq("2", "cups", "milk")).length == 3)
    val rows = RecipeData.ingredientLines(spark, 0.001, 1)
      .select($"recipeId", $"lineNo", $"phrase", $"servings", $"trueNdbId")
      .as[(Long, Int, String, Int, Long)].collect()
    val gold = RecipeData.recipes(spark, 0.001, 1)
      .select($"recipeId", $"goldKcalPerServing").as[(Long, Double)].collect().toMap
    assert(rows.length == lines.length && rows.exists(_._5 != -1L))
    assert(rows.map(_._1).toSet == gold.keySet)
  }
}
