package repro.jobs

import repro.exp.Experiments

/** Reproduces every artifact of the paper. Tables III (food descriptions
  * inferred with the modified vs the vanilla Jaccard index, beside the
  * paper's, and how many rows of each column agree with it) and IV (Butter,
  * salted's unit relations after cleaning and lemmatization) need no Spark
  * and print first. Then, from one trained NER model and one corpus pass:
  * Table I (NER tag extraction on the twelve Piroszhki phrases), Figure 2
  * (percentage mapping of recipes, as a table) and the §III result scalars
  * (NER F1 with 5-fold CV, unique-ingredient match rate, modified/vanilla
  * divergence, match accuracy, per-serving calorie error). Usage: ResultsJob [sf]
  */
object ResultsJob {
  def main(args: Array[String]): Unit = {
    val sf = Jobs.sfArg(args)
    val t3 = Experiments.table3
    val (modified, vanilla) = Experiments.agreement(t3)
    Jobs.out.println("TABLE III — MODIFIED vs VANILLA JACCARD MATCHES")
    Jobs.out.println(Experiments.render(t3))
    Jobs.out.println(s"modified-JI column agreement with paper: $modified/${t3.length}")
    Jobs.out.println(s"vanilla-JI column agreement with paper:  $vanilla/${t3.length}")
    Jobs.out.println("TABLE IV — INGREDIENT AND UNIT RELATIONS")
    Jobs.out.println(Experiments.render(Experiments.table4))

    val spark = Jobs.session("results")
    val ner   = Experiments.trainNer(spark)
    Jobs.out.println("TABLE I — INGREDIENT TAGS EXTRACTION")
    Jobs.out.println(Experiments.render(Experiments.table1(ner._1)))
    val r = Experiments.results(spark, sf, ner)
    Jobs.out.println(s"FIGURE 2 — PERCENTAGE MAPPING OF RECIPES (SF=${Experiments.plain(sf)})")
    Jobs.out.println(Experiments.render(r.fig2))
    Jobs.out.println(f"mean per-recipe mapping: ${r.meanPctNameMapped}%.2f%% (name) vs ${r.meanPctFullyMapped}%.2f%% (name+unit)")
    Jobs.out.println(f"fully-mapped recipes: ${r.nFullyMappedRecipes}%,d of ${r.nRecipes}%,d")
    Jobs.out.println()
    Jobs.out.println(Experiments.report(sf, r))
    spark.stop()
  }
}
