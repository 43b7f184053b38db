package repro

import repro.core.ReferenceIndex
import repro.data.{RecipeData, UsdaData}
import repro.nlp.{NerModel, NerTrainer}

/** Shared trained NER model and reference index for test suites (one of each per JVM). */
object TestModels {
  /** Trained on 1.5k synthetic labeled phrases, without Spark — small but representative. */
  lazy val ner: NerModel = {
    val labeled = RecipeData.labeledCorpus(1500, seed = 99)
      .map(l => NerTrainer.Labeled(l.tokens.toIndexedSeq, l.tags.toIndexedSeq))
    NerTrainer.train(labeled, epochs = 6, seed = 42)
  }

  /** Every generated food, with its nutrients, and every weight row; built without Spark. */
  lazy val index: ReferenceIndex = ReferenceIndex(
    UsdaData.allFoods.map(f =>
      (f.ndbId, f.description, Some(ReferenceIndex.Per100g(f.kcal100g, f.protein100g, f.fat100g, f.carb100g)))),
    UsdaData.allWeights)
}
