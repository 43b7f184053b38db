package repro.nlp

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.data.RecipeData

/** §II-A corpus selection: POS-vector clustering + stratified sampling. */
class CorpusSelectorSpec extends SparkSpec {

  import spark.implicits._

  private lazy val phrases = RecipeData.labeledCorpus(spark, 400, seed = 3)
    .select($"phrase")
    .withColumn("id", monotonically_increasing_id())
    .cache()

  test("cluster assigns every phrase to one of k clusters") {
    val out = CorpusSelector.cluster(phrases, k = 5, seed = 1)
    assert(out.count() == 400)
    val clusters = out.select("cluster").distinct().collect().map(_.getInt(0)).toSet
    assert(clusters.nonEmpty && clusters.forall(c => c >= 0 && c < 5))
  }

  test("clustering is deterministic in the seed") {
    val a = CorpusSelector.cluster(phrases, k = 4, seed = 9)
      .select("id", "cluster").collect().map(r => (r.getLong(0), r.getInt(1))).toMap
    val b = CorpusSelector.cluster(phrases, k = 4, seed = 9)
      .select("id", "cluster").collect().map(r => (r.getLong(0), r.getInt(1))).toMap
    assert(a == b)
  }

  test("split covers every row with train or test, no overlap") {
    val out = CorpusSelector.split(phrases, k = 5, trainFrac = 0.75, seed = 1)
    assert(out.count() == 400)
    val splits = out.select("split").distinct().collect().map(_.getString(0)).toSet
    assert(splits == Set("train", "test"))
  }

  test("split ratio is approximately trainFrac overall") {
    val out = CorpusSelector.split(phrases, k = 5, trainFrac = 0.75, seed = 1)
    val train = out.filter($"split" === "train").count().toDouble
    assert(train / 400 > 0.65 && train / 400 < 0.85, s"train frac ${train / 400}")
  }

  test("every non-trivial cluster contributes to both train and test") {
    val out = CorpusSelector.split(phrases, k = 4, trainFrac = 0.7, seed = 1).cache()
    val perCluster = out.groupBy("cluster")
      .agg(count(lit(1)).as("n"),
           sum(when($"split" === "train", 1).otherwise(0)).as("nTrain"))
      .collect()
    perCluster.filter(_.getAs[Long]("n") >= 5).foreach { r =>
      val n = r.getAs[Long]("n"); val t = r.getAs[Long]("nTrain")
      assert(t > 0 && t < n, s"cluster ${r.getAs[Int]("cluster")}: $t/$n in train")
    }
  }

  test("invalid trainFrac is rejected") {
    intercept[IllegalArgumentException] {
      CorpusSelector.split(phrases, k = 3, trainFrac = 1.5, seed = 1)
    }
  }

  test("paper-scale selection: 6612 train / 2188 test proportions (0.75)") {
    // The paper's corpus split is 6612/(6612+2188) ≈ 0.751 — the default.
    assert(math.abs(6612.0 / (6612 + 2188) - 0.751) < 0.001)
  }
}
