package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.data.UsdaData

/** §II-C unit matching: lookups, conversions, thresholds, fallbacks. */
class UnitMatcherSpec extends SparkSpec {

  import spark.implicits._

  private lazy val weights = UsdaData.weights(spark).cache()

  /** (name, quantity, rawUnit, sizeWord, ndbId) rows. */
  private def lines(rows: (String, String, String, String, java.lang.Long)*): DataFrame =
    rows.toSeq.toDF("name", "quantity", "unit", "size", "ndbId")

  private def resolveOne(name: String, qty: String, unit: String,
                         size: String = "", ndbId: Long = 1L): org.apache.spark.sql.Row =
    UnitMatcher.resolve(lines((name, qty, unit, size, ndbId)), weights).collect().head

  test("listed unit resolves from the USDA weight table (butter tbsp=14.2g)") {
    val r = resolveOne("butter", "1", "tbsp")
    assert(r.getAs[Double]("grams") == 14.2)
    assert(r.getAs[String]("resolvedUnit") == "tablespoon")
    assert(r.getAs[Boolean]("unitResolved"))
  }

  test("quantity scales grams ('3 tablespoons butter')") {
    val r = resolveOne("butter", "3", "tablespoons")
    assert(math.abs(r.getAs[Double]("grams") - 42.6) < 1e-9)
  }

  test("fractional quantity ('1/2 cup butter' = 113.5g)") {
    val r = resolveOne("butter", "1/2", "cup")
    assert(math.abs(r.getAs[Double]("grams") - 113.5) < 1e-9)
  }

  test("mixed-number quantity ('2 1/2 cups')") {
    val r = resolveOne("butter", "2 1/2", "cup")
    assert(math.abs(r.getAs[Double]("grams") - 2.5 * 227.0) < 1e-9)
  }

  test("range quantity averages ('2-4 tbsp')") {
    val r = resolveOne("butter", "2-4", "tbsp")
    assert(math.abs(r.getAs[Double]("grams") - 3 * 14.2) < 1e-9)
  }

  test("noisy USDA unit strings are cleaned ('pat (1\" sq…)')") {
    val r = resolveOne("butter", "2", "pat")
    assert(math.abs(r.getAs[Double]("grams") - 10.0) < 1e-9)
  }

  test("mass units convert exactly without a weight row ('1/2 lb beef')") {
    val r = resolveOne("beef", "1/2", "lb", ndbId = 38L)
    assert(math.abs(r.getAs[Double]("grams") - 226.796) < 1e-3)
  }

  test("gram quantities are exact ('250 g flour')") {
    val r = resolveOne("flour", "250", "g", ndbId = 42L)
    assert(math.abs(r.getAs[Double]("grams") - 250.0) < 1e-9)
  }

  test("paper's worked example: teaspoon of butter via volume conversion") {
    // USDA lists no teaspoon for butter; cup=227g → tsp = 227×4.93/236.59.
    val r = resolveOne("butter", "1", "teaspoon")
    assert(math.abs(r.getAs[Double]("grams") - 4.729) < 0.01)
    assert(r.getAs[String]("resolvedUnit") == "teaspoon")
  }

  test("sizes are one equivalent unit: small/medium/large onion all resolve") {
    val df = lines(
      ("onion", "1", "", "small", 39L),
      ("onion", "1", "", "medium", 39L),
      ("onion", "1", "", "large", 39L))
    val rs = UnitMatcher.resolve(df, weights).collect()
    assert(rs.forall(_.getAs[Boolean]("unitResolved")))
    // All resolve to the first size row (seq order), per §II-C's equivalence.
    assert(rs.map(_.getAs[Double]("grams")).distinct.length == 1)
  }

  test("explicit size unit word also resolves ('2 small apples')") {
    val r = resolveOne("apple", "2", "small", ndbId = 18L)
    assert(r.getAs[Boolean]("unitResolved"))
    assert(math.abs(r.getAs[Double]("grams") - 2 * 149.0) < 1e-9)
  }

  test("implausible quantity/unit ('500 cups') is rejected and falls back") {
    // 500 cups of butter = 113 kg >> 5 kg threshold → unit invalidated; the
    // fallback re-resolves with the corpus-mode unit for 'butter'.
    val df = lines(
      ("butter", "500", "cup", "", 1L),
      ("butter", "1", "tbsp", "", 1L),
      ("butter", "2", "tbsp", "", 1L))
    val rs = UnitMatcher.resolve(df, weights).collect()
    val big = rs.find(_.getAs[Double]("qty") == 500.0).get
    assert(big.getAs[String]("resolvedUnit") == "tablespoon") // mode fallback
    assert(math.abs(big.getAs[Double]("grams") - 500 * 14.2) < 1e-6 ||
           big.getAs[Double]("grams") <= UnitMatcher.MaxGramsPerLine * 2)
  }

  test("missing unit falls back to the ingredient's most frequent unit") {
    val df = lines(
      ("garlic", "2", "cloves", "", 48L),
      ("garlic", "1", "clove", "", 48L),
      ("garlic", "3", "", "", 48L)) // no unit → mode is clove
    val rs = UnitMatcher.resolve(df, weights).collect()
    val missing = rs.find(_.getAs[String]("unit") == "").get
    assert(missing.getAs[String]("resolvedUnit") == "clove")
    assert(math.abs(missing.getAs[Double]("grams") - 9.0) < 1e-9)
  }

  test("missing unit with no resolvable sibling stays unresolved") {
    val df = lines(("mystery", "1", "", "", null))
    val r = UnitMatcher.resolve(df, weights).collect().head
    assert(!r.getAs[Boolean]("unitResolved"))
    assert(r.isNullAt(r.fieldIndex("grams")))
  }

  test("unit alias 'tbsp'/'tablespoon'/'tablespoons' resolve identically") {
    val df = lines(
      ("butter", "1", "tbsp", "", 1L),
      ("butter", "1", "tablespoon", "", 1L),
      ("butter", "1", "tablespoons", "", 1L))
    val gs = UnitMatcher.resolve(df, weights).collect().map(_.getAs[Double]("grams"))
    assert(gs.distinct.length == 1 && gs.head == 14.2)
  }

  test("missing quantity defaults to 1") {
    val r = resolveOne("butter", "", "tbsp")
    assert(r.getAs[Double]("qty") == 1.0)
    assert(r.getAs[Double]("grams") == 14.2)
  }

  test("unmatched food (null ndbId) with a mass unit still resolves") {
    val df = lines(("unknown thing", "100", "g", "", null))
    val r = UnitMatcher.resolve(df, weights).collect().head
    assert(r.getAs[Boolean]("unitResolved"))
    assert(r.getAs[Double]("grams") == 100.0)
  }

  test("mode computation matches DuckDB (oracle)") {
    val df = lines(
      ("x", "1", "tbsp", "", 1L), ("x", "1", "tbsp", "", 1L),
      ("x", "1", "cup", "", 1L), ("y", "1", "cup", "", 1L))
    val stdUdf = org.apache.spark.sql.functions.udf((u: String) => UnitTables.standardize(u))
    val counts = df
      .withColumn("stdUnit", stdUdf($"unit"))
      .groupBy("name", "stdUnit").count()
      .select($"name", $"stdUnit", $"count")
    repro.Oracle.assertEquivalent(
      counts.withColumn("count", $"count".cast("long")),
      """SELECT name,
        |       CASE unit WHEN 'tbsp' THEN 'tablespoon' ELSE unit END AS stdUnit,
        |       COUNT(*) AS count
        |FROM lines GROUP BY 1, 2""".stripMargin,
      "lines" -> df.select("name", "unit"))
  }
}
