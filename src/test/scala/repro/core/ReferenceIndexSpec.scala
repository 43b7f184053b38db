package repro.core

import repro.{SparkSpec, TestModels}
import repro.core.JaccardMatcher.{Metric, Modified, Vanilla}
import repro.core.ReferenceIndex.Candidate
import repro.data.UsdaData
import repro.data.UsdaData.UsdaWeight

/** The in-memory reference index: its weight tables, a brute-force check of
  * its matching over the corpus keys of [[TestModels.sf001]] and the
  * description windows, and the per-line digest of that run.
  */
class ReferenceIndexSpec extends SparkSpec {

  import spark.implicits._

  private def index = ReferenceIndex.usda

  // ---- §II-C weight tables ------------------------------------------------

  test("gramsPerUnit keeps each (food, unit)'s lowest seq") {
    // Onion lists small, medium and large: all three are "size", and the
    // first listed wins. A later butter row for an already-listed unit loses.
    assert(index.gramsPerUnit((39L, "size")) == 70.0)
    val extra = ReferenceIndex(Nil, UsdaData.allWeights :+ UsdaWeight(1, 9, 1.0, "tablespoon", 99.0))
    assert(extra.gramsPerUnit((1L, "tablespoon")) == 14.2)
    // One entry per distinct (food, standardized unit) of the weight table.
    val pairs = UsdaData.allWeights.map(w => (w.ndbId, UnitTables.standardize(w.unit))).filter(_._2.nonEmpty)
    assert(index.gramsPerUnit.keySet == pairs.toSet)
  }

  test("butter's first volumetric unit is tablespoon") {
    // Butter lists pat (seq 1), tbsp (seq 2), then cup: pat is not volumetric.
    assert(index.firstVolumetric(1L) == ("tablespoon", 14.2))
    assert(index.firstVolumetric(39L) == ("cup", 160.0))
  }

  test("collect carries per-100 g nutrients, and builds from descriptions alone") {
    val butter = UsdaData.allFoods.find(_.ndbId == 1L).get
    val full   = ReferenceIndex.collect(Some(UsdaData.foods(spark)), None)
    val bare   = ReferenceIndex.collect(Some(UsdaData.foods(spark).select("ndbId", "description")), None)
    assert(full.foods(1L).per100g.contains(
      ReferenceIndex.Per100g(butter.kcal100g, butter.protein100g, butter.fat100g, butter.carb100g)))
    assert(bare.foods(1L).per100g.isEmpty && full.foods.keySet == bare.foods.keySet)
    assert(bare.best("salted butter", "", "", "", Modified) == full.best("salted butter", "", "", "", Modified))
  }

  // ---- §II-B matching against a brute-force scan ---------------------------

  private lazy val described = UsdaData.allFoods.map { f =>
    (f.ndbId, TextPrep.prepDescription(f.description), TextPrep.descriptionHasRaw(f.description))
  }

  /** Every food sharing a token with A, found by scanning all foods, as
    * (ndbId, inter, aSize, bSize, bestPriority, rawBonus).
    */
  private def scanAll(name: String, state: String, temp: String, df: String): Seq[(Long, Long, Int, Int, Int, Int)] = {
    val a       = TextPrep.prepIngredient(name, state, temp, df)
    val noState = state == null || state.isEmpty
    described.flatMap { case (id, b, raw) =>
      val shared = b.filter(pt => a.contains(pt.token))
      Option.when(shared.nonEmpty)(
        (id, shared.size.toLong, a.size, b.size, shared.map(_.priority).min, if (raw && noState) 1 else 0))
    }
  }

  /** Score every food and sort by the four tie-break keys. */
  private def scanBest(name: String, state: String, temp: String, df: String, metric: Metric): Option[Long] = {
    val scored = scanAll(name, state, temp, df).map { case (id, inter, aSize, bSize, priority, rawBonus) =>
      val score = metric match {
        case Modified => inter.toDouble / aSize
        case Vanilla  => inter.toDouble / (aSize + bSize - inter)
      }
      (-score, -rawBonus, priority, id)
    }
    scored.sorted(Ordering.Tuple4(Ordering.Double.TotalOrdering, Ordering.Int, Ordering.Int, Ordering.Long))
      .headOption.map(_._4)
  }

  /** The distinct SF 0.01 corpus keys, with their entities, then the description windows. */
  private lazy val corpusKeys = TestModels.sf001.perLine
    .map(r => (r.getAs[String]("name"), r.getAs[String]("state"), r.getAs[String]("temp"), r.getAs[String]("df"))).distinct
  private lazy val matchKeys = (corpusKeys ++ TestModels.descriptionWindows).distinct

  test("matchBest equals a brute-force scan of all foods") {
    val keys = matchKeys.zipWithIndex.map { case ((n, s, t, d), i) => (i.toLong, n, s, t, d) }
    assert(corpusKeys.length > 100 && TestModels.descriptionWindows.length > 1000)
    val ingredients = keys.toDF("ingId", "name", "state", "temp", "df")
    val reference   = UsdaData.foods(spark).select("ndbId", "description")
    for (metric <- Seq(Modified, Vanilla)) {
      val got = JaccardMatcher.matchBest(ingredients, reference, metric)
        .select("ingId", "ndbId").as[(Long, Long)].collect().toMap
      val want = keys.flatMap { case (i, n, s, t, d) => scanBest(n, s, t, d, metric).map(i -> _) }.toMap
      val diff = want.keySet.union(got.keySet).filter(k => want.get(k) != got.get(k))
      assert(diff.isEmpty, s"$metric: ${diff.size} keys differ, e.g. ${diff.take(3).map(k => keys(k.toInt))}")
    }
  }

  test("candidates equal a brute-force scan of all foods") {
    val diff = matchKeys.filter { case (n, s, t, d) =>
      val got = index.candidates(n, s, t, d).map(c => (c.ndbId, c.inter, c.aSize, c.bSize, c.bestPriority, c.rawBonus))
      got.size != got.distinct.size || got.toSet != scanAll(n, s, t, d).toSet
    }
    assert(matchKeys.length > 1500)
    assert(diff.isEmpty, s"${diff.size} keys differ, e.g. ${diff.take(3)}")
  }

  test("one index shared by 4 threads matches as it does on one") {
    def bestAll(): Seq[Option[Candidate]] =
      for (metric <- Seq(Modified, Vanilla); (n, s, t, d) <- matchKeys) yield index.best(n, s, t, d, metric)
    val want    = bestAll()
    val got     = new Array[Seq[Seq[Option[Candidate]]]](4)
    val threads = got.indices.map(i => new Thread(() => got(i) = Seq.fill(3)(bestAll())))
    threads.foreach(_.start())
    threads.foreach(_.join())
    assert(got.forall(runs => runs != null && runs.forall(_ == want)))
  }

  // ---- end to end ----------------------------------------------------------

  test("per-line output at SF 0.01 is unchanged") {
    // Over every line of SF 0.01 seed 7 with the shared test model; GoldenSpec
    // digests the same run layer by layer, and ReferencePassSpec pins this
    // digest on its plain-Scala pass.
    val perLine = TestModels.sf001.perLine
    assert(perLine.length == 10021)
    assert(TestModels.lineDigest(perLine.map(r => r.getAs[Any](_: String))) == "13938da02b56")
  }
}
