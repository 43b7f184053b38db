package repro

import scala.util.hashing.MurmurHash3

import org.apache.spark.sql.Row

import repro.core.NutritionEstimator
import repro.data.{RecipeData, UsdaData}
import repro.exp.Experiments
import repro.nlp.{NerModel, NerTrainer}

/** Shared trained NER models, matcher keys and reference run for test suites (one of each per JVM). */
object TestModels {
  /** Trained on 1.5k synthetic labeled phrases, without Spark — small but representative. */
  lazy val ner: NerModel = {
    val labeled = RecipeData.labeledCorpus(1500, seed = 99)
      .map(l => NerTrainer.Labeled(l.tokens.toIndexedSeq, l.tags.toIndexedSeq))
    NerTrainer.train(labeled, epochs = 6, seed = 42)
  }

  /** The production model, its holdout F1 and its labeled corpus: `trainNer` at the
    * paper's 8800 phrases (6612 + 2188), as `ResultsJob` and the benchmark train it.
    */
  lazy val production: (NerModel, Double, Seq[NerTrainer.Labeled]) =
    Experiments.trainNer(SparkSpec.shared, nPhrases = 8800, epochs = 8, seed = 99)

  /** Every 1–3-word window of a food description, as an ingredient key with no entities. */
  lazy val descriptionWindows: Seq[(String, String, String, String)] = UsdaData.allFoods.flatMap { f =>
    val ws = f.description.toLowerCase.split("[^a-z]+").filter(_.nonEmpty).toSeq
    (1 to 3).flatMap(n => ws.sliding(n)).map(n => (n.mkString(" "), "", "", ""))
  }.distinct

  /** A pass's input rows (recipeId, lineNo, phrase, servings) and every `perLine` and `perRecipe` row. */
  final case class Run(lines: Seq[Row], perLine: Seq[Row], perRecipe: Seq[Row])

  /** One pass over the corpus lines at (`sf`, `seed`) with `model`, its rows collected
    * from one cached `perLine`, so no later cache clearing touches them.
    */
  def run(sf: Double, seed: Long, model: NerModel): Run = {
    val spark   = SparkSpec.shared
    val lines   = RecipeData.ingredientLines(spark, sf, seed).select("recipeId", "lineNo", "phrase", "servings")
    val perLine = NutritionEstimator.perLine(lines, model, UsdaData.foods(spark), UsdaData.weights(spark)).cache()
    val rows    = Run(lines.collect().toSeq, perLine.collect().toSeq, NutritionEstimator.perRecipe(perLine).collect().toSeq)
    perLine.unpersist()
    rows
  }

  /** The SF 0.01 seed 7 run with [[ner]], once per JVM: GoldenSpec digests it
    * layer by layer, ReferencePassSpec compares it cell by cell with a
    * plain-Scala pass, and ReferenceIndexSpec matches its ingredient keys.
    */
  lazy val sf001: Run = run(0.01, 7, ner)

  /** Order-independent digest of each line's (recipeId, lineNo, ndbId, resolvedUnit, grams bits),
    * a line being its columns by name.
    */
  def lineDigest(lines: Iterable[String => Any]): String = f"${lines.iterator.map { l =>
    val grams = Option(l("grams")).map(g => java.lang.Double.doubleToLongBits(g.asInstanceOf[Double]))
    MurmurHash3.stringHash(Seq(l("recipeId"), l("lineNo"), l("ndbId"), l("resolvedUnit"), grams).mkString("|")) & 0xffffffffL
  }.sum}%x"
}
