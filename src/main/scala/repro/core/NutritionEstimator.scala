package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.nlp.NerModel

/** End-to-end nutritional profile estimation (Figure 1's system
  * architecture): NER extraction → closest-description annotation over the
  * *unique* ingredients → unit matching → per-line nutrient calculation →
  * per-recipe aggregation.
  *
  * Matching runs on distinct (name, state, temp, df) tuples — the paper's
  * unit of account ("94.49% of the unique ingredients") — and the result is
  * joined back onto the full corpus on those four columns, so matching
  * scales with vocabulary, not corpus size. Matching, unit lookup and the
  * per-100 g nutrients all read one [[ReferenceIndex]] built on the driver
  * from `foods` and `weights`, so the foods table is never joined.
  */
object NutritionEstimator {

  /** Structured per-line estimate.
    *
    * @param lines   columns: recipeId, lineNo, phrase, servings
    * @param model   trained NER model
    * @param foods   USDA foods: ndbId, description, kcal100g, …, carb100g
    * @param weights USDA gram weights
    * @return [[UnitMatcher.resolve]]'s columns: name, state, temp, df, the
    *         other input and [[NerPipeline.Extracted]] columns, ndbId and score
    *         of [[JaccardMatcher.Best]], then qty, stdUnit and [[UnitMatcher.Resolved]]
    */
  def perLine(lines: DataFrame, model: NerModel,
              foods: DataFrame, weights: DataFrame): DataFrame = {
    val index     = ReferenceIndex.collect(Some(foods), Some(weights))
    // Cached so `extract` runs once a line: uncached, the join's inferred isnotnull filters inline it, 6 calls a line.
    val annotated = NerPipeline.annotate(model, lines).cache()
    val keys      = JaccardMatcher.KeyColumns
    val matched   = JaccardMatcher
      .matchBest(annotated.select(keys.map(col): _*).distinct(), index, JaccardMatcher.Modified, keys)

    UnitMatcher.resolve(annotated.join(matched, keys, "left"), index)
  }

  /** Per-recipe nutritional profile plus mapping statistics.
    *
    * @return recipeId, servings, nLines, nNameMapped, nFullyMapped,
    *         pctNameMapped, pctFullyMapped, estKcal, estKcalPerServing (null
    *         unless servings > 0), and protein/fat/carb totals
    */
  def perRecipe(perLineDf: DataFrame): DataFrame =
    perLineDf
      .groupBy(col("recipeId"), col("servings"))
      .agg(
        count(lit(1)).as("nLines"),
        sum(when(col("nameMapped"), 1).otherwise(0)).as("nNameMapped"),
        sum(when(col("fullyMapped"), 1).otherwise(0)).as("nFullyMapped"),
        sum(coalesce(col("estKcal"), lit(0.0))).as("estKcal"),
        sum(coalesce(col("estProtein"), lit(0.0))).as("estProtein"),
        sum(coalesce(col("estFat"), lit(0.0))).as("estFat"),
        sum(coalesce(col("estCarb"), lit(0.0))).as("estCarb"),
      )
      .withColumn("pctNameMapped",  col("nNameMapped") * 100.0 / col("nLines"))
      .withColumn("pctFullyMapped", col("nFullyMapped") * 100.0 / col("nLines"))
      .withColumn("estKcalPerServing", when(col("servings") > 0, col("estKcal") / col("servings")))

  /** Full pipeline: lines in, per-recipe profiles out. */
  def estimate(lines: DataFrame, model: NerModel,
               foods: DataFrame, weights: DataFrame): DataFrame =
    perRecipe(perLine(lines, model, foods, weights))
}
