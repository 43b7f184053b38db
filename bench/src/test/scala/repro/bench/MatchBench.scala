package repro.bench

import repro.{SparkSpec, TestModels}
import repro.core.{JaccardMatcher, NutritionEstimator, ReferenceIndex}
import repro.data.{RecipeData, UsdaData}

/** Matcher microbenchmark: single-thread [[ReferenceIndex.best]] keys per
  * second under J* and J, over the 1–3-word description windows (thousands
  * of keys with long posting lists) and the SF 0.01 corpus keys (a few
  * hundred). It prints throughput and asserts nothing about time.
  */
class MatchBench extends SparkSpec {

  private type Key = (String, String, String, String)

  private lazy val corpusKeys: Seq[Key] =
    NutritionEstimator.perLine(
      RecipeData.ingredientLines(spark, sf = 0.01).select("recipeId", "lineNo", "phrase", "servings"),
      TestModels.production._1, UsdaData.foods(spark), UsdaData.weights(spark))
      .select(JaccardMatcher.KeyColumns.head, JaccardMatcher.KeyColumns.tail: _*).distinct().collect()
      .map(r => (r.getString(0), r.getString(1), r.getString(2), r.getString(3))).toSeq

  /** Keys per second over `keys`: the fastest of 5 timed rounds, after 5 warm-up rounds. */
  private def keysPerSecond(index: ReferenceIndex, keys: Seq[Key], metric: JaccardMatcher.Metric): Double = {
    def round(): Double = {
      val t0 = System.nanoTime()
      keys.foreach { case (n, s, t, d) => index.best(n, s, t, d, metric) }
      (System.nanoTime() - t0) / 1e9
    }
    (1 to 5).foreach(_ => round())
    keys.length / (1 to 5).map(_ => round()).min
  }

  test("MATCHER — single-thread best, keys/s") {
    val index = ReferenceIndex.usda
    println("\nMATCHER — single-thread ReferenceIndex.best, keys/s (best of 5 rounds after 5 warm-up rounds)")
    for ((label, keys) <- Seq("description windows" -> TestModels.descriptionWindows, "SF 0.01 corpus keys" -> corpusKeys);
         metric        <- Seq(JaccardMatcher.Modified, JaccardMatcher.Vanilla)) {
      val rate = keysPerSecond(index, keys, metric)
      println(f"MATCHER: $label%-20s ${keys.length}%6d keys  $metric%-8s $rate%12.0f keys/s")
    }
  }
}
