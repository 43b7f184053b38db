package repro.jobs

import repro.exp.Experiments

/** Reproduces the §III result scalars: NER F1 (5-fold CV), unique-ingredient
  * match rate, modified/vanilla divergence, match accuracy, per-serving
  * calorie error. Usage: ResultsJob [sf]
  */
object ResultsJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("results")
    val sf    = Jobs.sfArg(args)
    val r     = Experiments.results(spark, sf, Experiments.trainNer(spark))
    Jobs.out.println(Experiments.report(sf, r))
    spark.stop()
  }
}
