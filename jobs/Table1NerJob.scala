package repro.jobs

import repro.exp.Experiments

/** Reproduces paper Table I: NER tag extraction on the twelve Piroszhki
  * ingredient phrases. Usage: Table1NerJob [nTrainingPhrases]
  */
object Table1NerJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table1-ner")
    val n     = args.headOption.map(_.toInt).getOrElse(8800)
    val (model, f1, _) = Experiments.trainNer(spark, n)
    Jobs.out.println(s"NER model trained on ~$n phrases; held-out F1 = ${"%.4f".format(f1)}")
    Jobs.out.println("\nTABLE I — INGREDIENT TAGS EXTRACTION")
    Jobs.out.println(Experiments.render(Experiments.table1(model)))
    spark.stop()
  }
}
