package repro.exp

import repro.{SparkSpec, TestModels}
import repro.core.NutritionEstimator
import repro.data.{RecipeData, UsdaData}
import repro.jobs.Jobs
import repro.nlp.NerModel

/** The experiment layer shared by `ResultsJob` and GoldenSpec, at unit-test scale. */
class ExperimentsSpec extends SparkSpec {

  import spark.implicits._

  test("table1 produces one row per Piroszhki phrase") {
    val t1 = Experiments.table1(TestModels.ner)
    assert(t1.length == 12)
    assert(t1.head.productElementNames.toSeq ==
      Seq("phrase", "name", "state", "quantity", "unit", "temp", "df", "size"))
  }

  test("table3 produces one row per paper row with both metrics") {
    val t3 = Experiments.table3
    assert(t3.map(r => (r.name, r.state, r.modifiedJI, r.vanillaJI)) == Seq(
      ("red lentils", "", "Lentils, pink or red, raw", "Lentils, pink or red, raw"),
      ("roma tomato", "quartered", "Tomato products, canned, paste, without salt added", "Soup, tomato, canned, condensed"),
      ("coriander", "ground", "Coriander (cilantro) leaves, raw", "Coriander (cilantro) leaves, raw"),
      ("tomato paste", "", "Tomato products, canned, paste, without salt added",
       "Tomato products, canned, paste, without salt added"),
      ("vegetable broth", "", "Soup, vegetable with beef broth, canned, condensed", "Soup, vegetable broth, ready to serve"),
      ("fava beans", "", "Broadbeans (fava beans), mature seeds, raw", "Beans, fava, in pod, raw"),
      ("cayenne pepper", "ground", "Spices, pepper, red or cayenne", "Spices, pepper, red or cayenne"),
      ("chicken with giblets", "", "Chicken, broilers or fryers, meat and skin and giblets and neck, raw",
       "Chicken, broilers or fryers, meat and skin and giblets and neck, raw"),
      ("sesame seeds", "", "Seeds, sesame seeds, whole, dried", "Seeds, sesame seeds, whole, dried")))
    // Rows agreeing with the paper's modified and vanilla columns, as ResultsJob prints them.
    assert(Experiments.agreement(t3) == (7L, 4L))
  }

  test("table4 is the cleaned butter weight table") {
    assert(Experiments.table4.map(r => (r.ingredient, r.seq, r.amount, r.unit, r.grams, r.gram_per_amount)) == Seq(
      ("Butter, salted", 1, 1.0, "pat", 5.0, 5.0),
      ("Butter, salted", 2, 1.0, "tablespoon", 14.2, 14.2),
      ("Butter, salted", 3, 1.0, "cup", 227.0, 227.0),
      ("Butter, salted", 4, 1.0, "stick", 113.0, 113.0)))
  }

  test("fig2 buckets are exhaustive and percentages sum to 100 per level") {
    val perRecipe = Seq(
      (1L, 100.0, 100.0), (2L, 100.0, 80.0), (3L, 95.0, 50.0),
      (4L, 60.0, 0.0), (5L, 100.0, 100.0),
    ).toDF("recipeId", "pctNameMapped", "pctFullyMapped")
    val f = Experiments.fig2(perRecipe)
    val sums = f.groupBy(_.level).values.map(rs => (rs.map(_.recipes).sum, rs.map(_.pctOfRecipes).sum))
    sums.foreach { case (n, pct) =>
      assert(n == 5)
      assert(math.abs(pct - 100.0) < 0.2)
    }
    // 100% is its own bucket, separate from 90-100.
    val name100 = f.find(r => r.level == "ingredient name" && r.bucket == "100").get.recipes
    assert(name100 == 3)
    val name90 = f.find(r => r.level == "ingredient name" && r.bucket == "90-100").get.recipes
    assert(name90 == 1)
  }

  test("fig2's recipes per level and bucket agree with DuckDB, at the bucket edges and at SF 0.001") {
    val edges    = Seq(0.0, 9.99, 10.0, 89.99, 90.0, 99.99, 100.0)
    val boundary = edges.flatMap(name => edges.map(full => (name, full))).toDF("pctNameMapped", "pctFullyMapped")
    val corpus   = Experiments.estimateCorpus(spark, 0.001, TestModels.ner).select("pctNameMapped", "pctFullyMapped")
    val perRecipe = boundary.unionByName(corpus).cache()
    def bucket(pct: String) =
      s"""CASE WHEN CAST($pct AS DOUBLE) >= 100 THEN '100'
         |ELSE CAST(CAST(floor(CAST($pct AS DOUBLE) / 10) * 10 AS INTEGER) AS VARCHAR) || '-' ||
         |     CAST(CAST(floor(CAST($pct AS DOUBLE) / 10) * 10 + 10 AS INTEGER) AS VARCHAR) END""".stripMargin
    repro.Oracle.assertEquivalent(
      Experiments.fig2(perRecipe).map(r => (r.level, r.bucket, r.recipes)).toDF("level", "bucket", "recipes"),
      s"""SELECT 'ingredient name' AS level, ${bucket("pctNameMapped")} AS bucket, count(*) AS recipes
         |FROM r GROUP BY 1, 2
         |UNION ALL
         |SELECT 'ingredient + unit', ${bucket("pctFullyMapped")}, count(*) FROM r GROUP BY 1, 2""".stripMargin,
      "r" -> perRecipe)
    perRecipe.unpersist()
  }

  /** The 600-phrase, 4-epoch model that the trainNer tests read. */
  private lazy val ner600e4 = Experiments.trainNer(spark, nPhrases = 600, epochs = 4, seed = 5)

  test("trainNer returns a usable model and sane holdout F1") {
    val (model, f1, corpus) = ner600e4
    assert(corpus.size == 600)
    assert(f1 > 0.80 && f1 <= 1.0, s"holdout F1 $f1")
    assert(model.tag(IndexedSeq("2", "cups", "milk")).head == "QUANTITY")
  }

  test("trainNer leaves no persistent RDD behind") {
    val before = spark.sparkContext.getPersistentRDDs.size
    Experiments.trainNer(spark, nPhrases = 600, epochs = 1, seed = 5)
    assert(spark.sparkContext.getPersistentRDDs.size == before)
  }

  test("trainNer's model and holdout F1 are pinned, at test scale and at the production settings") {
    def fingerprint(m: NerModel): Int =
      (m.emitW.toSeq.sortBy(_._1).map { case (f, w) => (f, w.toSeq) }, m.transW.toSeq.map(_.toSeq)).##
    // The last value hashes the model's tags over its whole labeled corpus,
    // which pins inference as well as the training decode.
    Seq(("trainNer(600, 4, 5)", () => ner600e4, -976154283, 0.9948630136986302, -1753535866),
        ("trainNer(8800, 8, 99)", () => TestModels.production, 1054895373, 0.9990843538972187, -905064210))
      .foreach { case (call, trained, fp, f1, tagged) =>
        val (model, holdoutF1, corpus) = trained()
        assert((fingerprint(model), holdoutF1, corpus.map(l => model.tag(l.tokens)).##) == (fp, f1, tagged), call)
      }
  }

  /** A 600-phrase model, for the tiny results runs. */
  private lazy val ner600 = Experiments.trainNer(spark, 600, 8, 95)

  /** Results at (SF 0.001, a 600-phrase model, 2 CV folds, seed 3), and how many persistent RDDs the call added. */
  private lazy val (tiny, tinyPersisted) = {
    val ner    = ner600
    val before = spark.sparkContext.getPersistentRDDs.size
    val r      = Experiments.results(spark, 0.001, ner, cvFolds = 2, seed = 3)
    (r, spark.sparkContext.getPersistentRDDs.size - before)
  }

  test("results computes all §III scalars at tiny scale") {
    val r = tiny
    assert(r.nerHoldoutF1 == 0.99830220713073)
    assert(r.nerCvF1s == Seq(0.9882154882154882, 0.9966804979253112))
    assert(r.nUniqueIngredients == 319)
    assert(r.uniqueMatchRatePct == 305 * 100.0 / 319)
    assert((r.divergenceSampled, r.divergenceSampleSize) == (20L, 319L))
    // accuracyTopKCorrect and accuracyTopKPct rest on `mode`'s arbitrary pick
    // among tied true foods, so only the top-K size is pinned.
    assert(r.accuracyTopK == 305)
    assert(r.accuracyTopKCorrect <= r.accuracyTopK)
    assert((r.nRecipes, r.nFullyMappedRecipes) == (118L, 94L))
    assert(r.maePerServingKcal.exists(m => math.abs(m / 93.2196120384863 - 1) < 1e-9), r.maePerServingKcal)
    assert(r.meanGoldKcalPerServing.exists(g => math.abs(g / 669.8586188366203 - 1) < 1e-9), r.meanGoldKcalPerServing)
    // Figure 2 comes from the same pass: each level covers every recipe, and
    // its 100 % name+unit bucket is the fully-mapped cohort.
    r.fig2.groupBy(_.level).foreach { case (level, rows) => assert(rows.map(_.recipes).sum == r.nRecipes, level) }
    assert(r.fig2.find(b => b.level == "ingredient + unit" && b.bucket == "100").map(_.recipes)
      .contains(r.nFullyMappedRecipes))
  }

  test("results reports no calorie error when no recipe is fully mapped") {
    // SF 0.00001 seed 2 is one recipe, and it is not fully mapped.
    val r = Experiments.results(spark, 0.00001, ner600, cvFolds = 2, seed = 2)
    assert((r.nRecipes, r.nFullyMappedRecipes, r.maePerServingKcal, r.meanGoldKcalPerServing) == (1L, 0L, None, None))
    val lines = Experiments.report(0.00001, r).linesIterator.toSeq
    assert(lines.length == 10)
    assert(lines.head == "RESULTS (§III) at SF=0.00001 — paper value in [brackets]")
    assert(lines.takeRight(2) == Seq("Per-serving calorie MAE:    n/a kcal  [36.42]", "Mean gold kcal/serving:     n/a"))
  }

  test("results leaves at most perLine's own NER cache persisted") {
    assert(tinyPersisted <= 1, s"$tinyPersisted persistent RDDs added")
  }

  test("report prints the ten result lines") {
    val lines = Experiments.report(0.001, tiny).linesIterator.toSeq
    assert(lines.length == 10)
    assert(lines.head == "RESULTS (§III) at SF=0.001 — paper value in [brackets]")
    assert(lines(2).startsWith("NER 2-fold CV mean F1:"), lines(2))
    assert(lines(3) == "Unique ingredients:         319")
    assert(lines(7) == "Recipes / fully mapped:     118 / 94  [118071 / 2482 evaluated]")
  }

  test("ingredientKeys: ndbId and freq per key agree with DuckDB over the same per-line rows") {
    val lines = RecipeData.ingredientLines(spark, sf = 0.001, seed = 3)
      .select("recipeId", "lineNo", "phrase", "servings", "trueNdbId")
    val pl = NutritionEstimator.perLine(lines, TestModels.ner, UsdaData.foods(spark), UsdaData.weights(spark))
      .select("name", "state", "temp", "df", "ndbId", "trueNdbId")
    val rows = spark.createDataFrame(spark.sparkContext.parallelize(pl.collect().toSeq, 2), pl.schema)
    val keys = Experiments.ingredientKeys(rows, seed = 3)
    assert(keys.filter($"freq" > 0).count() > 100)
    // DuckDB groups by the four key columns alone, so a key whose ndbId
    // varied would be two rows on the Spark side and one here.
    repro.Oracle.assertEquivalent(
      keys.select("name", "state", "temp", "df", "ndbId", "freq"),
      """SELECT name, state, temp, df, min(ndbId) AS ndbId,
        |       count(CASE WHEN trueNdbId <> '-1' THEN 1 END) AS freq
        |FROM lines GROUP BY name, state, temp, df""".stripMargin,
      "lines" -> rows)
  }

  test("render produces an aligned text table") {
    // ResultsJob's printed Table IV, byte for byte.
    assert(Experiments.render(Experiments.table4) == Seq(
      "| ingredient     | seq | amount | unit       | grams | gram_per_amount |",
      "| -------------- | --- | ------ | ---------- | ----- | --------------- |",
      "| Butter, salted | 1   | 1.0    | pat        | 5.0   | 5.0             |",
      "| Butter, salted | 2   | 1.0    | tablespoon | 14.2  | 14.2            |",
      "| Butter, salted | 3   | 1.0    | cup        | 227.0 | 227.0           |",
      "| Butter, salted | 4   | 1.0    | stick      | 113.0 | 113.0           |").mkString("", "\n", "\n"))
    assert(Experiments.render(Nil) == "")
  }

  test("render prints Table III's longest description in full") {
    val giblets = "Chicken, broilers or fryers, meat and skin and giblets and neck, raw"
    assert(giblets.length == 68 && Experiments.render(Experiments.table3).contains(s" $giblets "))
  }

  test("the jobs' output stream writes UTF-8") {
    val bytes = new java.io.ByteArrayOutputStream()
    Jobs.utf8(bytes).print("§—∅")
    assert(bytes.toByteArray.toSeq.map(_ & 0xff) == Seq(0xc2, 0xa7, 0xe2, 0x80, 0x94, 0xe2, 0x88, 0x85))
  }

  test("sfArg reads a finite scale factor above 0, and 0.1 when none is given") {
    assert(Jobs.sfArg(Array.empty) == 0.1)
    assert(Jobs.sfArg(Array("0.5")) == 0.5)
    Seq("0", "-1", "NaN", "Infinity", "abc", "").foreach { arg =>
      val e = intercept[IllegalArgumentException](Jobs.sfArg(Array(arg)))
      assert(e.getMessage.endsWith(s"got $arg"), e.getMessage)
    }
  }

  test("estimateCorpus returns one row per recipe") {
    val out = Experiments.estimateCorpus(spark, 0.0005, TestModels.ner, seed = 9)
    val expected = RecipeData.recipes(spark, 0.0005, seed = 9).count()
    assert(out.count() == expected)
  }
}
