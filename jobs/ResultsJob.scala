package repro.jobs

import repro.exp.Experiments

/** Reproduces the paper's model-dependent artifacts from one trained NER
  * model and one corpus pass: Table I (NER tag extraction on the twelve
  * Piroszhki phrases), Figure 2 (percentage mapping of recipes, as a table)
  * and the §III result scalars (NER F1 with 5-fold CV, unique-ingredient match
  * rate, modified/vanilla divergence, match accuracy, per-serving calorie
  * error). Usage: ResultsJob [sf]
  */
object ResultsJob {
  def main(args: Array[String]): Unit = {
    val sf    = Jobs.sfArg(args)
    val spark = Jobs.session("results")
    val ner   = Experiments.trainNer(spark)
    Jobs.out.println("TABLE I — INGREDIENT TAGS EXTRACTION")
    Jobs.out.println(Experiments.render(Experiments.table1(ner._1)))
    val r = Experiments.results(spark, sf, ner)
    Jobs.out.println(s"FIGURE 2 — PERCENTAGE MAPPING OF RECIPES (SF=$sf)")
    Jobs.out.println(Experiments.render(r.fig2))
    Jobs.out.println(f"mean per-recipe mapping: ${r.meanPctNameMapped}%.2f%% (name) vs ${r.meanPctFullyMapped}%.2f%% (name+unit)")
    Jobs.out.println(f"fully-mapped recipes: ${r.nFullyMappedRecipes}%,d of ${r.nRecipes}%,d")
    Jobs.out.println()
    Jobs.out.println(Experiments.report(sf, r))
    spark.stop()
  }
}
