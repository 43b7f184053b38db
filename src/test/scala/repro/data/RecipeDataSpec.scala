package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{QuantityParser, UnitTables}

/** Integrity of the synthetic RecipeDB generator and its ground truth. */
class RecipeDataSpec extends SparkSpec {

  private lazy val lines = RecipeData.ingredientLines(spark, sf = 0.002, seed = 7).cache()

  test("scale factor controls corpus size (SF=1 ≡ 118,071 recipes)") {
    val nRecipes = lines.select("recipeId").distinct().count()
    assert(nRecipes == (RecipeData.RecipesPerSf * 0.002).toLong)
  }

  test("recipes have 5-12 ingredient lines") {
    val counts = lines.groupBy("recipeId").count().select("count")
      .collect().map(_.getLong(0))
    assert(counts.forall(c => c >= 5 && c <= 12))
  }

  test("servings are clean and well-defined (2-8)") {
    val s = lines.select("servings").distinct().collect().map(_.getInt(0))
    assert(s.forall(v => v >= 2 && v <= 8))
  }

  test("generation is deterministic in (sf, seed)") {
    val a = RecipeData.ingredientLines(spark, 0.0005, seed = 7).collect().toSeq
    val b = RecipeData.ingredientLines(spark, 0.0005, seed = 7).collect().toSeq
    assert(a == b)
    val c = RecipeData.ingredientLines(spark, 0.0005, seed = 8).collect().toSeq
    assert(a != c)
  }

  test("tokens and tags are aligned and phrase is their rendering") {
    val rows = lines.limit(200).collect()
    rows.foreach { l =>
      assert(l.tokens.length == l.tags.length)
      assert(l.phrase == l.tokens.mkString(" "))
    }
  }

  test("gold tags use only the paper's tag inventory") {
    val tags = lines.select(explode(col("tags"))).distinct().collect().map(_.getString(0)).toSet
    assert(tags.subsetOf(Set("NAME", "STATE", "QUANTITY", "UNIT", "TEMP", "DF", "SIZE", "O")))
  }

  test("every line has a NAME and a QUANTITY") {
    val bad = lines.filter(!array_contains(col("tags"), "NAME") ||
                           !array_contains(col("tags"), "QUANTITY")).count()
    assert(bad == 0)
  }

  test("ground-truth quantity matches the rendered QUANTITY tokens") {
    val rows = lines.limit(500).collect()
    rows.foreach { l =>
      val qtyText = l.tokens.zip(l.tags).filter(_._2 == "QUANTITY").map(_._1)
      // first maximal run only — 'or' alternatives repeat the quantity
      val first = l.tokens.zip(l.tags).dropWhile(_._2 != "QUANTITY").takeWhile(_._2 == "QUANTITY").map(_._1)
      val parsed = QuantityParser.parse(first.mkString(" "))
      assert(parsed.isDefined, s"unparseable: ${first.mkString(" ")} in '${l.phrase}'")
      assert(math.abs(parsed.get - l.trueQty) < 1e-6,
        s"qty mismatch in '${l.phrase}': parsed=$parsed truth=${l.trueQty}")
      assert(qtyText.nonEmpty)
    }
  }

  test("trueKcal is consistent with trueGrams and the food's kcal100g") {
    val foodKcal = UsdaData.allFoods.map(f => f.ndbId -> f.kcal100g).toMap
    lines.filter(col("trueNdbId") =!= -1L).limit(500).collect().foreach { l =>
      val expect = l.trueGrams * foodKcal(l.trueNdbId) / 100.0
      assert(math.abs(expect - l.trueKcal) < 1e-6, s"kcal mismatch in '${l.phrase}'")
    }
  }

  test("trueGrams respects listed USDA weights when the unit is listed") {
    val weights = UsdaData.allWeights.groupBy(_.ndbId)
    lines.filter(col("trueNdbId") =!= -1L && col("trueUnit") =!= "").limit(500).collect()
      .foreach { l =>
        val ws = weights.getOrElse(l.trueNdbId, Seq.empty)
        val stdUnits = ws.map(w => UnitTables.standardize(w.unit)).toSet
        if (stdUnits.contains(l.trueUnit)) {
          val w = ws.filter(x => UnitTables.standardize(x.unit) == l.trueUnit).minBy(_.seq)
          // May also be a mass unit or a size row chosen differently; accept
          // either the listed weight or an exact mass conversion.
          val listed = l.trueQty * w.grams / w.amount
          val mass   = UnitTables.massGrams.get(l.trueUnit).map(_ * l.trueQty)
          val sizes  = ws.filter(x => UnitTables.standardize(x.unit) == "size")
            .map(x => l.trueQty * x.grams / x.amount)
          val ok = math.abs(listed - l.trueGrams) < 1e-6 ||
            mass.exists(m => math.abs(m - l.trueGrams) < 1e-6) ||
            sizes.exists(s => math.abs(s - l.trueGrams) < 1e-6)
          assert(ok, s"grams mismatch in '${l.phrase}': truth=${l.trueGrams}")
        }
      }
  }

  test("some lines are region-centric unmappables (trueNdbId = -1)") {
    val n = lines.filter(col("trueNdbId") === -1L).count()
    assert(n > 0)
    assert(n < lines.count() / 10) // rare, like the paper's unmapped 5.51%
  }

  test("unit aliases appear in the rendered text (tbsp and tablespoon)") {
    val phrases = lines.select("phrase").collect().map(_.getString(0))
    assert(phrases.exists(_.contains("tbsp")))
    assert(phrases.exists(_.contains("tablespoon")))
    assert(phrases.exists(p => p.contains(" lb ") || p.endsWith(" lb")))
  }

  test("mixed fractions and ranges appear in the rendered text") {
    val phrases = lines.select("phrase").collect().map(_.getString(0))
    assert(phrases.exists(_.matches("^\\d+ \\d/\\d .*")), "no mixed fractions")
    assert(phrases.exists(_.matches("^\\d+-\\d+ .*")), "no ranges")
  }

  test("some lines have no unit (missing-unit fallback is exercised)") {
    assert(lines.filter(col("trueUnit") === "").count() > 0)
  }

  test("some lines use volumetric units absent from the food's weight list") {
    val weightUnits = UsdaData.allWeights.groupBy(_.ndbId)
      .view.mapValues(_.map(w => UnitTables.standardize(w.unit)).toSet).toMap
    val conversions = lines.filter(col("trueNdbId") =!= -1L).collect().count { l =>
      l.trueUnit.nonEmpty && UnitTables.isVolumetric(l.trueUnit) &&
        !weightUnits.getOrElse(l.trueNdbId, Set.empty).contains(l.trueUnit)
    }
    assert(conversions > 0, "no conversion-table cases generated")
  }

  test("recipe-level gold labels are within ±5% of the truth") {
    val recipes = RecipeData.recipes(spark, 0.002, seed = 7)
    val rows = recipes.select("trueKcalPerServing", "goldKcalPerServing").collect()
    rows.foreach { r =>
      val t = r.getDouble(0); val g = r.getDouble(1)
      assert(g >= t * 0.95 - 1e-9 && g <= t * 1.05 + 1e-9, s"gold $g truth $t")
    }
  }

  test("labeled corpus yields the requested number of phrases") {
    assert(RecipeData.labeledCorpus(300, seed = 99).size == 300)
  }

  test("labeled corpus is exactly the first n generated lines, for every n up to 60") {
    // At least 20 recipes of 5 or more lines each: more than 60 lines.
    Seq(3L, 5L, 99L).foreach { seed =>
      val all = RecipeData.ingredientLines(spark, 20.5 / RecipeData.RecipesPerSf, seed).collect().toSeq
      assert(all.size >= 60)
      (1 to 60).foreach { n =>
        val corpus = RecipeData.labeledCorpus(n, seed)
        assert(corpus.size == n && corpus == all.take(n), s"labeledCorpus($n, $seed)")
      }
    }
  }

  test("per-recipe aggregation matches DuckDB (oracle)") {
    import spark.implicits._
    val df = lines.limit(2000)
      .select($"recipeId", $"servings", $"trueKcal").cache()
    val agg = df.groupBy($"recipeId", $"servings")
      .agg(round(sum($"trueKcal"), 2).as("totKcal"), count(lit(1)).as("n"))
      .select($"recipeId".cast("string").as("recipeId"),
              $"servings".cast("string").as("servings"),
              $"totKcal", $"n".cast("long").as("n"))
    repro.Oracle.assertEquivalent(
      agg,
      """SELECT recipeId, servings, ROUND(SUM(CAST(trueKcal AS DOUBLE)), 2) AS totKcal,
        |       COUNT(*) AS n
        |FROM lines GROUP BY recipeId, servings""".stripMargin,
      "lines" -> df)
  }
}
