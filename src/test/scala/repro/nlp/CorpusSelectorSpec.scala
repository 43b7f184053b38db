package repro.nlp

import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.data.RecipeData

/** §II-A corpus selection: POS-vector clustering + stratified sampling. */
class CorpusSelectorSpec extends SparkSpec {

  import spark.implicits._

  private lazy val phrases = RecipeData.labeledCorpus(400, seed = 3).map(_.tokens)

  test("cluster assigns every phrase to one of k clusters") {
    val out = CorpusSelector.cluster(spark, phrases, k = 5, seed = 1)
    assert(out.size == 400)
    assert(out.nonEmpty && out.forall(c => c >= 0 && c < 5))
  }

  test("clustering is deterministic in the seed") {
    val a = CorpusSelector.cluster(spark, phrases, k = 4, seed = 9)
    val b = CorpusSelector.cluster(spark, phrases, k = 4, seed = 9)
    assert(a == b)
  }

  test("split covers every row with train or test, no overlap") {
    val (train, test) = CorpusSelector.split(spark, phrases, k = 5, trainFrac = 0.75, seed = 1)
    assert(train.nonEmpty && test.nonEmpty)
    assert((train ++ test).sorted == phrases.indices)
  }

  test("split ratio is approximately trainFrac overall") {
    val (train, _) = CorpusSelector.split(spark, phrases, k = 5, trainFrac = 0.75, seed = 1)
    val frac = train.size / 400.0
    assert(frac > 0.65 && frac < 0.85, s"train frac $frac")
  }

  test("every non-trivial cluster contributes to both train and test") {
    val clusters   = CorpusSelector.cluster(spark, phrases, k = 4, seed = 1)
    val (train, _) = CorpusSelector.split(spark, phrases, k = 4, trainFrac = 0.7, seed = 1)
    val inTrain    = train.toSet
    phrases.indices.groupBy(clusters).foreach { case (c, members) =>
      val t = members.count(inTrain)
      if (members.size >= 5) assert(t > 0 && t < members.size, s"cluster $c: $t/${members.size} in train")
    }
  }

  test("invalid trainFrac is rejected") {
    intercept[IllegalArgumentException] {
      CorpusSelector.split(spark, phrases, k = 3, trainFrac = 1.5, seed = 1)
    }
  }

  test("paper-scale selection: 6612 train / 2188 test proportions (0.75)") {
    // The paper's corpus split is 6612/(6612+2188) ≈ 0.751 — the default.
    assert(math.abs(6612.0 / (6612 + 2188) - 0.751) < 0.001)
  }

  test("split is Spark's window split over (cluster, xxhash64(id, seed)), in that order") {
    // The perceptron's shuffle depends on the order of train, so the model
    // rests on this order as much as on the membership.
    val (k, trainFrac, seed) = (5, 0.751, 99L)
    val clusters = CorpusSelector.cluster(spark, phrases, k, seed)
    val byCluster = Window.partitionBy($"cluster")
    val expected = clusters.zipWithIndex.map { case (c, i) => (i.toLong, c) }.toDF("id", "cluster")
      .withColumn("hash", xxhash64($"id", lit(seed)))
      .withColumn("rn", row_number().over(byCluster.orderBy($"hash")))
      .withColumn("isTrain", $"rn" <= greatest(lit(1), ceil(count(lit(1)).over(byCluster) * trainFrac)))
      .orderBy(not($"isTrain"), $"cluster", $"hash")
      .select($"id").as[Long].collect().map(_.toInt).toSeq
    val (train, test) = CorpusSelector.split(spark, phrases, k, trainFrac, seed)
    assert(train ++ test == expected)
  }
}
