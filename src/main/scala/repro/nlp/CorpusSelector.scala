package repro.nlp

import org.apache.spark.ml.clustering.KMeans
import org.apache.spark.ml.linalg.Vectors
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Diversity-driven train/test selection (§II-A): represent every ingredient
  * phrase by its POS-tag-frequency vector, cluster the vectors with KMeans,
  * and sample each cluster proportionally into the train and test sets so
  * both cover the full structural diversity of the corpus.
  */
object CorpusSelector {

  /** Attach a `cluster` column to phrases.
    *
    * @param phrases DataFrame with columns `id` (long) and `phrase` (string)
    * @param k       number of KMeans clusters
    */
  def cluster(phrases: DataFrame, k: Int = 8, seed: Long = 42): DataFrame = {
    val toVec = udf { (phrase: String) =>
      Vectors.dense(PosTagger.frequencyVector(phrase.split("\\s+").toIndexedSeq))
    }
    val withVec = phrases.withColumn("posVec", toVec(col("phrase")))
    val model = new KMeans()
      .setK(k).setSeed(seed).setFeaturesCol("posVec").setPredictionCol("cluster")
      .fit(withVec)
    model.transform(withVec).drop("posVec")
  }

  /** Cluster then split: within each cluster, rows are ordered by a
    * deterministic hash and the first `trainFrac` go to "train", the rest to
    * "test" — a stratified split over structural diversity.
    */
  def split(phrases: DataFrame, k: Int = 8, trainFrac: Double = 0.75, seed: Long = 42): DataFrame = {
    require(trainFrac > 0 && trainFrac < 1, s"trainFrac must be in (0,1): $trainFrac")
    val clustered = cluster(phrases, k, seed)
    val w      = Window.partitionBy(col("cluster")).orderBy(xxhash64(col("id"), lit(seed)))
    val wCount = Window.partitionBy(col("cluster"))
    clustered
      .withColumn("rn", row_number().over(w))
      .withColumn("clusterSize", count(lit(1)).over(wCount))
      .withColumn("split",
        when(col("rn") <= greatest(lit(1), ceil(col("clusterSize") * trainFrac)), lit("train"))
          .otherwise(lit("test")))
      .drop("rn", "clusterSize")
  }
}
