package repro

import repro.data.{RecipeData, UsdaData}
import repro.exp.Experiments
import repro.nlp.{NerModel, NerTrainer}

/** Shared trained NER models and matcher keys for test suites (one of each per JVM). */
object TestModels {
  /** Trained on 1.5k synthetic labeled phrases, without Spark — small but representative. */
  lazy val ner: NerModel = {
    val labeled = RecipeData.labeledCorpus(1500, seed = 99)
      .map(l => NerTrainer.Labeled(l.tokens.toIndexedSeq, l.tags.toIndexedSeq))
    NerTrainer.train(labeled, epochs = 6, seed = 42)
  }

  /** The production model, its holdout F1 and its labeled corpus: `trainNer` at the
    * paper's 8800 phrases (6612 + 2188), as the jobs and the benchmark train it.
    */
  lazy val production: (NerModel, Double, Seq[NerTrainer.Labeled]) =
    Experiments.trainNer(SparkSpec.shared, nPhrases = 8800, epochs = 8, seed = 99)

  /** Every 1–3-word window of a food description, as an ingredient key with no entities. */
  lazy val descriptionWindows: Seq[(String, String, String, String)] = UsdaData.allFoods.flatMap { f =>
    val ws = f.description.toLowerCase.split("[^a-z]+").filter(_.nonEmpty).toSeq
    (1 to 3).flatMap(n => ws.sliding(n)).map(n => (n.mkString(" "), "", "", ""))
  }.distinct
}
