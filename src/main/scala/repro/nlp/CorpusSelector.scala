package repro.nlp

import org.apache.spark.ml.clustering.KMeans
import org.apache.spark.ml.linalg.Vectors
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.expressions.XXH64

/** Diversity-driven train/test selection (§II-A): represent every ingredient
  * phrase by its POS-tag-frequency vector, cluster the vectors with KMeans,
  * and sample each cluster proportionally into the train and test sets so
  * both cover the full structural diversity of the corpus.
  *
  * Plain Scala over the driver's phrases; Spark runs only the KMeans fit.
  */
object CorpusSelector {

  /** Each phrase's cluster in [0, k), from MLlib's KMeans estimator
    * (k-means||) fitted on one partition of the phrases' vectors, in order.
    * k-means|| seeds each partition's sampling, so the partitioning is part
    * of the model, and the estimator picks its solver from a summary of the
    * input.
    */
  def cluster(spark: SparkSession, phrases: Seq[Seq[String]], k: Int = 8, seed: Long = 42): IndexedSeq[Int] = {
    val vectors = phrases.map(p => Vectors.dense(PosTagger.frequencyVector(p))).toIndexedSeq
    val input   = spark.createDataFrame(spark.sparkContext.parallelize(vectors.map(Tuple1(_)), 1)).toDF("features")
    val model   = new KMeans().setK(k).setSeed(seed).fit(input)
    vectors.map(model.predict)
  }

  /** Cluster then split: within each cluster, in ascending cluster order,
    * phrase indices are ordered by Spark's `xxhash64(id, seed)` and the first
    * `max(1, ceil(size × trainFrac))` go to train, the rest to test — a
    * stratified split over structural diversity. Returns (train, test).
    */
  def split(spark: SparkSession, phrases: Seq[Seq[String]], k: Int = 8, trainFrac: Double = 0.75,
            seed: Long = 42): (Seq[Int], Seq[Int]) = {
    require(trainFrac > 0 && trainFrac < 1, s"trainFrac must be in (0,1): $trainFrac")
    val clusters = cluster(spark, phrases, k, seed)
    val parts = clusters.indices.groupBy(clusters).toSeq.sortBy(_._1).map { case (_, members) =>
      val ordered = members.sortBy(i => XXH64.hashLong(seed, XXH64.hashLong(i, 42L)))
      ordered.splitAt(math.max(1, math.ceil(ordered.size * trainFrac).toInt))
    }
    (parts.flatMap(_._1), parts.flatMap(_._2))
  }
}
