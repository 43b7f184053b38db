package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.data.UsdaData

/** §II-B closest-description matching: heuristics (a)-(i) and Table III. */
class JaccardMatcherSpec extends SparkSpec {

  import spark.implicits._

  /** Curated-only reference (the paper's worked examples live here). */
  private lazy val reference: DataFrame =
    UsdaData.foods(spark).filter($"ndbId" <= 50).select("ndbId", "description").cache()

  private def ingredients(rows: (String, String, String, String)*): DataFrame =
    rows.zipWithIndex
      .map { case ((n, s, t, d), i) => (i.toLong, n, s, t, d) }
      .toSeq.toDF("ingId", "name", "state", "temp", "df")

  private lazy val curated: ReferenceIndex =
    ReferenceIndex(UsdaData.allFoods.filter(_.ndbId <= 50).map(f => (f.ndbId, f.description, None)), Nil)

  /** The description of the best match, without Spark. */
  private def bestOf(name: String, state: String = "", temp: String = "", df: String = "",
                     metric: JaccardMatcher.Metric = JaccardMatcher.Modified): Option[String] =
    curated.best(name, state, temp, df, metric).map(c => curated.foods(c.ndbId).description)

  // ---- heuristic (e): modified vs vanilla metric ------------------------

  test("J* removes the bias against long descriptions: 'skimmed milk'") {
    // Under vanilla J every extra term in B shrinks the score, so a short
    // milk description wins; under J* the detailed "Milk, reduced fat, …"
    // description is no longer penalized (paper's worked example for (e)).
    val vanilla  = bestOf("skimmed milk", metric = JaccardMatcher.Vanilla)
    val modified = bestOf("skimmed milk")
    assert(!vanilla.get.startsWith("Milk, reduced fat"))
    assert(vanilla.get.length < modified.get.length)
    assert(modified.get.startsWith("Milk, reduced fat"))
  }

  test("scores: J* uses |A| as denominator, vanilla uses |A∪B|") {
    val scored = JaccardMatcher.scoreCandidates(
      ingredients(("red lentils", "", "", "")), reference)
    val row = scored.filter($"ndbId" === 21).collect().head
    // A = {red, lentil}; B(21) = {lentil, pink, red, raw}; |A∩B| = 2.
    assert(row.getAs[Long]("inter") == 2)
    assert(math.abs(row.getAs[Double]("jstar") - 1.0) < 1e-9)
    assert(math.abs(row.getAs[Double]("jvanilla") - 0.5) < 1e-9)
  }

  test("property: jstar >= jvanilla and both in (0, 1] on all candidates") {
    val scored = JaccardMatcher.scoreCandidates(
      ingredients(("butter", "", "", ""), ("sesame seeds", "", "", ""),
                  ("tomato paste", "", "", ""), ("egg", "", "", "")),
      reference).collect()
    assert(scored.nonEmpty)
    scored.foreach { r =>
      val js = r.getAs[Double]("jstar"); val jv = r.getAs[Double]("jvanilla")
      assert(js >= jv - 1e-12)
      assert(js > 0 && js <= 1.0 + 1e-12)
      assert(jv > 0 && jv <= 1.0 + 1e-12)
    }
  }

  // ---- heuristic (f): negation ------------------------------------------

  test("'unsalted butter' matches 'Butter, without salt'") {
    assert(bestOf("unsalted butter").contains("Butter, without salt"))
  }

  test("'salted butter' matches 'Butter, salted'") {
    assert(bestOf("salted butter").contains("Butter, salted"))
  }

  // ---- heuristic (g): raw provision -------------------------------------

  test("'apple' with no state matches 'Apples, raw, with skin'") {
    assert(bestOf("apple").contains("Apples, raw, with skin"))
  }

  // ---- heuristic (h): sequential priority -------------------------------

  test("'apple' prefers head-noun match over 'Babyfood, apples, dices, toddler'") {
    val best = bestOf("apple").get
    assert(!best.startsWith("Babyfood"))
  }

  test("priority resolves 'ground coriander' to the leaf-headed description") {
    // 'coriander' is the head term (priority 0) of "Coriander (cilantro)
    // leaves, raw" but priority 1 in "Spices, coriander leaf, dried" —
    // paper Table III: modified JI → "Coriander (cilantro) leaves, raw".
    assert(bestOf("coriander", state = "ground")
      .contains("Coriander (cilantro) leaves, raw"))
  }

  // ---- heuristic (i): first match in database order ----------------------

  test("'egg' resolves to 'Egg, whole, raw, fresh' (first of equal matches)") {
    assert(bestOf("egg").contains("Egg, whole, raw, fresh"))
  }

  test("'egg white' and 'egg yolk' resolve to their variants") {
    assert(bestOf("egg white").contains("Egg, white, raw, fresh"))
    assert(bestOf("egg yolk").contains("Egg, yolk, raw, fresh"))
  }

  // ---- heuristic (d): state/temp/df participate in matching --------------

  test("state tokens match later description terms") {
    assert(bestOf("milk", state = "whipped").isDefined) // does not throw; states join A
    val withState = bestOf("butter", state = "whipped")
    assert(withState.contains("Butter, whipped, with salt"))
  }

  test("temperature and freshness tokens are part of A") {
    val scored = JaccardMatcher.scoreCandidates(
      ingredients(("egg", "", "", "fresh")), reference)
    val row = scored.filter($"ndbId" === 15).collect().head
    assert(row.getAs[Long]("inter") == 2) // egg + fresh
  }

  // ---- Table III rows (modified-JI column, where our analysis derives) ---

  private val tableIIIModified = Seq(
    ("red lentils", "", "Lentils, pink or red, raw"),
    ("coriander", "ground", "Coriander (cilantro) leaves, raw"),
    ("tomato paste", "", "Tomato products, canned, paste, without salt added"),
    ("vegetable broth", "", "Soup, vegetable with beef broth, canned, condensed"),
    ("fava beans", "", "Broadbeans (fava beans), mature seeds, raw"),
    ("cayenne pepper", "ground", "Spices, pepper, red or cayenne"),
    ("chicken with giblets", "", "Chicken, broilers or fryers, meat and skin and giblets and neck, raw"),
  )
  tableIIIModified.foreach { case (name, state, expect) =>
    test(s"Table III (modified): '$name' → '${expect.take(40)}…'") {
      assert(bestOf(name, state = state).contains(expect))
    }
  }

  private val tableIIIVanilla = Seq(
    ("vegetable broth", "", "Soup, vegetable broth, ready to serve"),
    ("fava beans", "", "Beans, fava, in pod, raw"),
    ("sesame seeds", "", "Seeds, sesame seeds, whole, dried"),
  )
  tableIIIVanilla.foreach { case (name, state, expect) =>
    test(s"Table III (vanilla): '$name' → '${expect.take(40)}…'") {
      assert(bestOf(name, state = state, metric = JaccardMatcher.Vanilla).contains(expect))
    }
  }

  test("vanilla is biased toward the shorter description on 'vegetable broth'") {
    val m = bestOf("vegetable broth").get
    val v = bestOf("vegetable broth", metric = JaccardMatcher.Vanilla).get
    assert(m != v)
    assert(v.length < m.length)
  }

  // ---- unmapped ingredients ----------------------------------------------

  test("region-centric ingredients stay unmapped (no shared token)") {
    val m = JaccardMatcher.matchBest(
      ingredients(("garam masala", "", "", ""), ("asafoetida", "", "", "")),
      reference)
    assert(m.count() == 0)
  }

  test("mappable and unmappable ingredients coexist in one pass") {
    val m = JaccardMatcher.matchBest(
      ingredients(("garam masala", "", "", ""), ("butter", "", "", "")),
      reference)
    assert(m.count() == 1)
  }

  // ---- determinism / exactly-one-match -----------------------------------

  test("exactly one best match per mapped ingredient") {
    val ings = ingredients(("butter", "", "", ""), ("egg", "", "", ""),
                           ("milk", "", "", ""), ("salt", "", "", ""))
    val m = JaccardMatcher.matchBest(ings, reference)
    assert(m.count() == 4)
    assert(m.select("ingId").distinct().count() == 4)
  }

  test("matching is deterministic across runs") {
    val ings = ingredients(("milk", "", "", ""), ("apple", "", "", ""),
                           ("sesame seeds", "", "", ""))
    val a = JaccardMatcher.matchBest(ings, reference).collect().sortBy(_.getLong(0)).toSeq
    val b = JaccardMatcher.matchBest(ings, reference).collect().sortBy(_.getLong(0)).toSeq
    assert(a == b)
  }

  // ---- oracle cross-check of the relational core --------------------------

  test("inverted-index intersection counts match DuckDB (oracle)") {
    val ings = ingredients(("red lentils", "", "", ""), ("tomato paste", "", "", ""))
    // Reconstruct the intersection counts relationally on both engines.
    val aTokens = ings.collect().map { r =>
      (r.getLong(0), TextPrep.prepIngredient(r.getString(1), r.getString(2),
        r.getString(3), r.getString(4)).toSeq)
    }.toSeq.flatMap { case (id, ts) => ts.map(t => (id, t)) }.toDF("ingId", "token")
    val bTokens = reference.collect().flatMap { r =>
      TextPrep.prepDescription(r.getString(1)).map(pt => (r.getLong(0), pt.token))
    }.toSeq.toDF("ndbId", "token")
    val sparkInter = aTokens.join(bTokens, "token")
      .groupBy("ingId", "ndbId").count()
      .select($"ingId".cast("string"), $"ndbId".cast("string"), $"count")
    repro.Oracle.assertEquivalent(
      sparkInter,
      "SELECT ingId, ndbId, COUNT(*) AS count FROM a JOIN b USING (token) GROUP BY ingId, ndbId",
      "a" -> aTokens, "b" -> bTokens)
    // And the matcher's inter agrees with the relational count.
    val matcher = JaccardMatcher.scoreCandidates(ings, reference)
      .select($"ingId", $"ndbId", $"inter").collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getLong(2)).toMap
    val relational = sparkInter.collect()
      .map(r => (r.getString(0).toLong, r.getString(1).toLong) -> r.getLong(2)).toMap
    assert(matcher == relational)
  }
}
