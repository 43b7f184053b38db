package repro.bench

import repro.{SparkSpec, TestModels}
import repro.exp.Experiments

/** Scalability check: the pipeline is a fixed number of DataFrame stages, so
  * wall time should grow roughly linearly with corpus size (the paper's
  * motivation is scaling to >100k recipes where chemical analysis and manual
  * curation cannot).
  *
  * Each timing forces every per-recipe column with a `noop` write: under
  * `count()` Spark prunes the columns and skips the UDFs that compute them.
  */
class ScaleBench extends SparkSpec {

  private def timeAt(sf: Double): (Long, Long) = {
    val model = TestModels.production._1 // trained once, outside the timings
    val t0 = System.nanoTime()
    val perRecipe = Experiments.estimateCorpus(spark, sf, model)
    perRecipe.write.format("noop").mode("overwrite").save()
    val ms = (System.nanoTime() - t0) / 1000000L
    val n  = perRecipe.count()
    spark.catalog.clearCache()
    (n, ms)
  }

  test("pipeline scales to 10x the corpus with sublinear-per-recipe cost") {
    timeAt(0.01) // warm-up: JIT and Spark code generation
    val (n1, ms1) = timeAt(0.01)
    val (n2, ms2) = timeAt(0.1)
    println(f"\nSCALING: SF=0.01 → $n1%6d recipes in $ms1%6d ms (${n1 * 1000.0 / ms1}%8.1f recipes/s)")
    println(f"SCALING: SF=0.10 → $n2%6d recipes in $ms2%6d ms (${n2 * 1000.0 / ms2}%8.1f recipes/s)")
    assert(n2 > n1 * 9)
    // Per-recipe cost must not explode with scale (fixed stage count).
    val perRecipe1 = ms1.toDouble / n1
    val perRecipe2 = ms2.toDouble / n2
    assert(perRecipe2 < perRecipe1 * 3.0,
      f"per-recipe cost grew ${perRecipe2 / perRecipe1}%.2fx from SF=0.01 to SF=0.1")
  }
}
