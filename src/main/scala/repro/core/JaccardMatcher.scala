package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Closest-description annotation via string-similarity matching (§II-B).
  *
  * Implements both metrics of the paper:
  *  - **modified Jaccard** (the contribution): J*(A,B) = |A∩B| / |A|, which
  *    removes the vanilla index's bias against long, detailed USDA
  *    descriptions (heuristic (e));
  *  - **vanilla Jaccard** (the baseline): J(A,B) = |A∩B| / |A∪B|.
  *
  * A is the preprocessed token set of the ingredient name joined with its
  * STATE/TEMP/DRY-FRESH entities (heuristic (d)); B the preprocessed token
  * set of a USDA description, each token carrying the sequence number of its
  * comma group (heuristics (a),(h)). Preprocessing is lemmatization,
  * stop-word removal, uniform casing (b) and negation normalization (f).
  *
  * Collision resolution (heuristics (g),(h),(i)), applied in order:
  *   score desc → raw-provision bonus desc → best matched-term priority asc
  *   → NDB index asc (first match in database order).
  *
  * Dataflow: scoring and ranking are [[ReferenceIndex]] methods applied per
  * ingredient key through UDFs, so cost is proportional to the posting lists
  * of each key's tokens, never |ingredients| × |foods|.
  */
object JaccardMatcher {

  sealed trait Metric
  case object Modified extends Metric
  case object Vanilla  extends Metric

  /** The ingredient key columns that make up set A. */
  val KeyColumns: Seq[String] = Seq("name", "state", "temp", "df")

  /** Score every (ingredient, candidate description) pair that shares at
    * least one token, under both metrics.
    *
    * @param ingredients columns: ingId, name, state, temp, df (strings)
    * @param reference   columns: ndbId, description
    * @return ingId, ndbId, inter, aSize, bSize, bestPriority, rawBonus,
    *         jstar, jvanilla
    */
  def scoreCandidates(ingredients: DataFrame, reference: DataFrame): DataFrame = {
    val index = ReferenceIndex.collect(Some(reference), None)
    val candidatesUdf = udf { (name: String, state: String, temp: String, df: String) =>
      index.candidates(name, state, temp, df).map(c => (c, c.jstar, c.jvanilla))
    }.withName("candidates")
    ingredients
      .select(col("ingId"), explode(candidatesUdf(KeyColumns.map(col): _*)).as("c"))
      .select(col("ingId"), col("c._1.*"), col("c._2").as("jstar"), col("c._3").as("jvanilla"))
  }

  /** Best match per ingredient under the chosen metric. Ingredients sharing
    * no token with any description are absent from the result (unmapped —
    * the paper reports 94.49% of unique ingredients mapped).
    *
    * @return ingId, ndbId, score
    */
  def matchBest(ingredients: DataFrame, reference: DataFrame, metric: Metric = Modified): DataFrame =
    matchBest(ingredients, ReferenceIndex.collect(Some(reference), None), metric, Seq("ingId"))

  /** [[matchBest]] against a built index, with `passThrough` columns in place of ingId. */
  def matchBest(ingredients: DataFrame, index: ReferenceIndex, metric: Metric,
                passThrough: Seq[String]): DataFrame = {
    val bestUdf = udf { (name: String, state: String, temp: String, df: String) =>
      index.best(name, state, temp, df, metric).toSeq
        .map(c => Best(c.ndbId, c.score(metric)))
    }.withName("best")
    ingredients
      .select(passThrough.map(col) :+ explode(bestUdf(KeyColumns.map(col): _*)).as("m"): _*)
      .select(passThrough.map(col) :+ col("m.*"): _*)
  }

  /** One row of [[matchBest]]'s result, after the pass-through columns. */
  final case class Best(ndbId: Long, score: Double)
}
