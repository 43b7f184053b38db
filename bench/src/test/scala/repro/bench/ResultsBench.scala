package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** The §III result scalars at bench scale, printed paper-vs-measured.
  *
  * Paper values: NER F1 0.95 (5-fold CV); 94.49% unique ingredients matched;
  * 227/1000 sampled ingredients change match between vanilla and modified JI;
  * 71.6% match accuracy (3580/5000); average per-serving calorie error 36.42
  * kcal over 2482 fully-mapped recipes (context: 1 tsp butter ≈ 35 kcal).
  */
class ResultsBench extends SparkSpec {

  private val sf = 0.1

  private lazy val r = Experiments.results(spark, sf)

  test("RESULTS §III — print paper vs measured") {
    println("\n" + Experiments.report(sf, r))
  }

  test("NER F1 reaches the paper's level (≥0.93 vs paper 0.95)") {
    assert(r.nerHoldoutF1 >= 0.93, f"held-out F1 ${r.nerHoldoutF1}%.4f")
    val cvMean = r.nerCvF1s.sum / r.nerCvF1s.size
    assert(cvMean >= 0.93, f"CV mean F1 $cvMean%.4f")
    assert(r.nerCvF1s.size == 5)
  }

  test("unique-ingredient match rate is high but below 100% (paper 94.49%)") {
    assert(r.uniqueMatchRatePct > 85.0, f"${r.uniqueMatchRatePct}%.2f%%")
    assert(r.uniqueMatchRatePct < 100.0, "nothing stayed unmapped — unrealistic")
  }

  test("modified and vanilla JI diverge on a sizable minority (paper 22.7%)") {
    val rate = r.divergenceSampled.toDouble / r.divergenceSampleSize
    assert(rate > 0.03 && rate < 0.60, f"divergence rate $rate%.3f")
  }

  test("match accuracy is imperfect but useful (paper 71.6%)") {
    assert(r.accuracyTopKPct > 55.0, f"${r.accuracyTopKPct}%.1f%%")
    assert(r.accuracyTopKPct < 99.5, "perfect accuracy — ambiguity not exercised")
  }

  test("a fully-mapped evaluation cohort exists (paper: 2482 recipes)") {
    assert(r.nFullyMappedRecipes > 100, s"${r.nFullyMappedRecipes} fully mapped")
    assert(r.nFullyMappedRecipes <= r.nRecipes)
  }

  test("per-serving calorie MAE is small relative to a serving (paper 36.42)") {
    // Order-of-magnitude agreement: tens of kcal against servings of
    // hundreds of kcal, i.e. within the paper's physical-variation argument.
    assert(r.maePerServingKcal < 80.0, f"MAE ${r.maePerServingKcal}%.2f kcal")
    assert(r.maePerServingKcal < r.meanGoldKcalPerServing * 0.35,
      f"MAE ${r.maePerServingKcal}%.2f vs mean serving ${r.meanGoldKcalPerServing}%.1f")
  }
}
