package repro.jobs

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.exp.Experiments

/** Reproduces paper Figure 2 (as a table): percentage mapping of recipes to
  * their nutritional profile. Usage: Fig2MappingJob [sf]
  */
object Fig2MappingJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig2-mapping")
    val sf    = Jobs.sfArg(args)
    val (model, _, _) = Experiments.trainNer(spark)
    val perRecipe = Experiments.estimateCorpus(spark, sf, model).cache()
    val (meanName, meanFull, fullyMapped, recipes) = summary(perRecipe)
    Jobs.out.println(s"FIGURE 2 — PERCENTAGE MAPPING OF RECIPES (SF=$sf)")
    Jobs.out.println(Experiments.render(Experiments.fig2(perRecipe)))
    Jobs.out.println(f"mean per-recipe mapping: $meanName%.2f%% (name) vs $meanFull%.2f%% (name+unit)")
    Jobs.out.println(f"fully-mapped recipes: $fullyMapped%,d of $recipes%,d")
    spark.stop()
  }

  /** Mean per-recipe name-mapped and fully-mapped percentages, the recipes
    * whose every line is fully mapped, and all recipes.
    */
  def summary(perRecipe: DataFrame): (Double, Double, Long, Long) = {
    val r = perRecipe.agg(avg("pctNameMapped"), avg("pctFullyMapped"),
                          count(when(col("nFullyMapped") === col("nLines"), 1)), count(lit(1))).head()
    (r.getDouble(0), r.getDouble(1), r.getLong(2), r.getLong(3))
  }
}
