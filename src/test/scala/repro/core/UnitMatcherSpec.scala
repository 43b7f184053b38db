package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, lit}
import org.apache.spark.sql.types.{IntegerType, StructField, StructType}
import repro.{SparkSpec, TestModels}
import repro.data.{RecipeData, UsdaData}

/** §II-C unit matching: lookups, conversions, thresholds, fallbacks. */
class UnitMatcherSpec extends SparkSpec {

  import spark.implicits._

  private lazy val weights = UsdaData.weights(spark).cache()

  /** (name, quantity, rawUnit, sizeWord, ndbId) rows. */
  private def lines(rows: (String, String, String, String, java.lang.Long)*): DataFrame =
    rows.toSeq.toDF("name", "quantity", "unit", "size", "ndbId")

  /** One line through the chain on its own, without Spark: it has no
    * siblings, so no fallback unit.
    */
  private def resolveOne(qty: String, unit: String, size: String = "",
                         ndbId: Long = 1L): (UnitMatcher.FirstPass, UnitMatcher.Resolved) = {
    val p = UnitMatcher.firstPass(ReferenceIndex.usda, qty, unit, size, Some(ndbId))
    (p, UnitMatcher.finish(ReferenceIndex.usda, Some(ndbId), p, null))
  }

  private def gramsOf(qty: String, unit: String, size: String = "", ndbId: Long = 1L): Double =
    resolveOne(qty, unit, size, ndbId)._2.grams.get

  test("listed unit resolves from the USDA weight table (butter tbsp=14.2g)") {
    val r = resolveOne("1", "tbsp")._2
    assert(r.grams.contains(14.2))
    assert(r.resolvedUnit.contains("tablespoon"))
    assert(r.gramsPerUnit.contains(14.2))
    assert(r.unitResolved && r.nameMapped && r.fullyMapped)
  }

  test("quantity scales grams ('3 tablespoons butter')") {
    assert(math.abs(gramsOf("3", "tablespoons") - 42.6) < 1e-9)
  }

  test("fractional quantity ('1/2 cup butter' = 113.5g)") {
    assert(math.abs(gramsOf("1/2", "cup") - 113.5) < 1e-9)
  }

  test("mixed-number quantity ('2 1/2 cups')") {
    assert(math.abs(gramsOf("2 1/2", "cup") - 2.5 * 227.0) < 1e-9)
  }

  test("range quantity averages ('2-4 tbsp')") {
    assert(math.abs(gramsOf("2-4", "tbsp") - 3 * 14.2) < 1e-9)
  }

  test("noisy USDA unit strings are cleaned ('pat (1\" sq…)')") {
    assert(math.abs(gramsOf("2", "pat") - 10.0) < 1e-9)
  }

  test("mass units convert exactly without a weight row ('1/2 lb beef')") {
    assert(math.abs(gramsOf("1/2", "lb", ndbId = 38L) - 226.796) < 1e-3)
  }

  test("gram quantities are exact ('250 g flour')") {
    assert(math.abs(gramsOf("250", "g", ndbId = 42L) - 250.0) < 1e-9)
  }

  test("paper's worked example: teaspoon of butter via volume conversion") {
    // USDA lists no teaspoon for butter; cup=227g → tsp = 227×4.93/236.59.
    val r = resolveOne("1", "teaspoon")._2
    assert(math.abs(r.grams.get - 4.729) < 0.01)
    assert(r.resolvedUnit.contains("teaspoon"))
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
    assert(math.abs(gramsOf("2", "small", ndbId = 18L) - 2 * 149.0) < 1e-9)
  }

  test("implausible quantity/unit ('500 cups') is rejected and falls back") {
    // 500 cups of butter = 113 kg >> 5 kg threshold → unit invalidated; the
    // fallback to the corpus-mode unit (tablespoon) gives 7.1 kg, which the
    // same threshold rejects, so the line stays unresolved.
    val df = lines(
      ("butter", "500", "cup", "", 1L),
      ("butter", "1", "tbsp", "", 1L),
      ("butter", "2", "tbsp", "", 1L))
    val big = UnitMatcher.resolve(df, weights).collect().find(_.getAs[Double]("qty") == 500.0).get
    assert(!big.getAs[Boolean]("unitResolved"))
    assert(big.isNullAt(big.fieldIndex("grams")) && big.isNullAt(big.fieldIndex("resolvedUnit")))
  }

  test("an implausible unit that is also the name's mode stays unresolved") {
    // Pass 1 rejects 500 cups; the fallback must not re-accept the same unit.
    val df = lines(
      ("butter", "500", "cup", "", 1L),
      ("butter", "1", "cup", "", 1L),
      ("butter", "2", "cup", "", 1L))
    val rs  = UnitMatcher.resolve(df, weights).collect()
    val big = rs.find(_.getAs[Double]("qty") == 500.0).get
    assert(!big.getAs[Boolean]("unitResolved"))
    assert(big.isNullAt(big.fieldIndex("grams")))
    assert(rs.count(_.getAs[Boolean]("unitResolved")) == 2)
    val p = UnitMatcher.firstPass(ReferenceIndex.usda, "500", "cup", "", Some(1L))
    assert(p.stdGramsPerUnit.isEmpty)
    assert(UnitMatcher.finish(ReferenceIndex.usda, Some(1L), p, "cup").grams.isEmpty)
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
    assert(Seq("tbsp", "tablespoon", "tablespoons").map(gramsOf("1", _)) == Seq(14.2, 14.2, 14.2))
  }

  test("missing quantity defaults to 1") {
    val (p, r) = resolveOne("", "tbsp")
    assert(p.qty.contains(1.0))
    assert(r.grams.contains(14.2))
  }

  test("an unparseable quantity leaves the line unresolved ('abc tbsp butter')") {
    for (q <- Seq("abc", "1/0", "one")) {
      val (p, r) = resolveOne(q, "tbsp")
      assert(p.qty.isEmpty, q)
      assert(r == UnitMatcher.Resolved(None, None, None, None, None, None, None,
                                       unitResolved = false, nameMapped = true, fullyMapped = false), q)
    }
    // Also with a fallback unit on offer, and through Spark.
    val p = UnitMatcher.firstPass(ReferenceIndex.usda, "abc", "", "", Some(1L))
    assert(UnitMatcher.finish(ReferenceIndex.usda, Some(1L), p, "tablespoon").grams.isEmpty)
    val r = UnitMatcher.resolve(lines(("butter", "abc", "tbsp", "", 1L)), weights).collect().head
    assert(!r.getAs[Boolean]("unitResolved"))
    assert(r.isNullAt(r.fieldIndex("grams")) && r.isNullAt(r.fieldIndex("qty")))
  }

  test("nutrients are grams × the matched food's per-100 g values / 100") {
    val butter = UsdaData.allFoods.find(_.ndbId == 1L).get
    val r = resolveOne("3", "tbsp")._2
    val g = 3 * 14.2
    assert(r.estKcal.contains(g * butter.kcal100g / 100.0))
    assert(r.estProtein.contains(g * butter.protein100g / 100.0))
    assert(r.estFat.contains(g * butter.fat100g / 100.0))
    assert(r.estCarb.contains(g * butter.carb100g / 100.0))
    // No nutrients from an index built from weights alone.
    val weightsOnly = ReferenceIndex(Nil, UsdaData.allWeights)
    val p = UnitMatcher.firstPass(weightsOnly, "1", "tbsp", "", Some(1L))
    assert(UnitMatcher.finish(weightsOnly, Some(1L), p, null).estKcal.isEmpty)
  }

  test("unmatched food (null ndbId) with a mass unit still resolves") {
    val p = UnitMatcher.firstPass(ReferenceIndex.usda, "100", "g", "", None)
    val r = UnitMatcher.finish(ReferenceIndex.usda, None, p, null)
    assert(r.grams.contains(100.0) && r.resolvedUnit.contains("gram"))
    assert(r.estKcal.isEmpty) // no food, no nutrients
    assert(r.unitResolved && !r.nameMapped && !r.fullyMapped)
  }

  /** Asserts that every line `resolve` gives a fallback unit gets its name's
    * DuckDB mode of first-pass units (highest count, then the first unit
    * A–Z), and returns those lines' `lineNo`, sorted.
    *
    * @param df columns: lineNo (unique), name, quantity, unit, size, ndbId
    */
  private def fallbackLinesMatchDuckDbMode(df: DataFrame): Seq[Int] = {
    val out      = UnitMatcher.resolve(df, weights).select("lineNo", "name", "stdUnit", "resolvedUnit").cache()
    val fallback = out.filter($"resolvedUnit".isNotNull && !($"resolvedUnit" <=> $"stdUnit"))
      .select("lineNo", "resolvedUnit")
    // A line resolves on its own unit or on the fallback, never on stdUnit
    // after failing with it (the same 5 kg check), so resolvedUnit = stdUnit
    // marks the lines whose first pass resolved.
    repro.Oracle.assertEquivalent(fallback,
      """WITH counts AS (
        |  SELECT name, stdUnit, COUNT(*) AS n FROM resolved
        |  WHERE resolvedUnit = stdUnit GROUP BY name, stdUnit),
        |modes AS (
        |  SELECT name, stdUnit AS modeUnit,
        |         ROW_NUMBER() OVER (PARTITION BY name ORDER BY n DESC, stdUnit ASC) AS rk
        |  FROM counts)
        |SELECT r.lineNo, m.modeUnit AS resolvedUnit
        |FROM resolved r LEFT JOIN modes m ON m.name = r.name AND m.rk = 1
        |WHERE r.resolvedUnit IS NOT NULL AND r.resolvedUnit IS DISTINCT FROM r.stdUnit""".stripMargin,
      "resolved" -> out)
    val lineNos = fallback.select("lineNo").as[Int].collect().sorted.toSeq
    out.unpersist()
    lineNos
  }

  test("resolve falls back to each name's DuckDB mode of first-pass units (oracle)") {
    val df = Seq[(Int, String, String, String, java.lang.Long)](
      // a: 2–2 cup/tablespoon tie, so the unit-less lines take cup (first A–Z).
      (1, "a", "1", "cup", 1L), (2, "a", "2", "cup", 1L), (3, "a", "1", "tbsp", 1L), (4, "a", "2", "tbsp", 1L),
      (5, "a", "1", "", 1L), (6, "a", "3", "", 1L),
      // b: tablespoon wins on count although cup comes first A–Z.
      (7, "b", "1", "tbsp", 1L), (8, "b", "2", "tbsp", 1L), (9, "b", "3", "tbsp", 1L), (10, "b", "1", "cup", 1L),
      (11, "b", "2", "", 1L),
      // c: its only unit fails the 5 kg check, so it has no mode.
      (12, "c", "500", "cup", 1L), (13, "c", "600", "cup", 1L), (14, "c", "1", "", 1L),
      // d: no line resolves.
      (15, "d", "1", "", null), (16, "d", "2", "cup", null))
      .toDF("lineNo", "name", "quantity", "unit", "ndbId").withColumn("size", lit(""))
    assert(fallbackLinesMatchDuckDbMode(df) == Seq(5, 6, 11))

    // The extracted lines of an SF 0.001 corpus, numbered and re-parallelized
    // so that the oracle's input is fixed rows rather than a recomputed plan.
    val cols   = Seq("name", "quantity", "unit", "size", "ndbId")
    val corpus = RecipeData.ingredientLines(spark, sf = 0.001, seed = 1)
      .select("recipeId", "lineNo", "phrase", "servings")
    val extracted = NutritionEstimator.perLine(corpus, TestModels.ner, UsdaData.foods(spark), weights)
      .select(cols.map(col): _*)
    val schema = StructType(StructField("lineNo", IntegerType, nullable = false) +: extracted.schema.fields)
    val rows   = extracted.collect().toSeq.zipWithIndex.map { case (r, i) => Row.fromSeq(i +: r.toSeq) }
    spark.catalog.clearCache()
    assert(fallbackLinesMatchDuckDbMode(
      spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)).nonEmpty)
  }
}
