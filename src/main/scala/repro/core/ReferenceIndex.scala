package repro.core

import org.apache.spark.sql.DataFrame

import repro.core.JaccardMatcher.{Metric, Modified, Vanilla}
import repro.data.UsdaData.{UsdaWeight, allFoods, allWeights}

/** The USDA side of §II-B matching, §II-C unit lookup and the nutrients,
  * collected once on the driver and captured in UDF closures the way
  * [[NerPipeline]] captures the NER model. Its methods are the only
  * definition of J* and J scoring with their tie-breaks, and of the mass →
  * USDA weight → volume-conversion chain.
  *
  * Matching runs on dense food ids 0 until n, assigned in `ndbId` order, so
  * "lower id wins" is also the lowest `ndbId`. Each token's posting list is a
  * pair of int arrays, and |B| and the raw flag are per-id arrays.
  */
final class ReferenceIndex private (
    postings: Map[String, ReferenceIndex.Postings],
    ndbIds: Array[Long],                              // dense id → ndbId, ascending
    val foods: Map[Long, ReferenceIndex.Food],
    val gramsPerUnit: Map[(Long, String), Double],    // (ndbId, standardized unit) → g, lowest seq
    val firstVolumetric: Map[Long, (String, Double)], // ndbId → lowest-seq volumetric (unit, g)
) extends Serializable {
  import ReferenceIndex._

  private val bSizes: Array[Int]  = ndbIds.map(foods(_).bSize)
  private val raw: Array[Boolean] = ndbIds.map(foods(_).hasRaw)

  /** ScanCount over the posting lists of A's tokens: |A∩B| and the best
    * matched-term priority per dense food id, and the ids touched in the
    * order first seen. The counters are allocated per call, since UDF tasks
    * and [[repro.exp.Experiments]] share one index across threads.
    */
  private final class Scan(name: String, state: String, temp: String, df: String) {
    private val a       = TextPrep.prepIngredient(name, state, temp, df)
    private val noState = state == null || state.isEmpty
    val aSize           = a.size
    val inter           = new Array[Int](ndbIds.length)
    val priority        = new Array[Int](ndbIds.length)
    val touched         = new Array[Int](ndbIds.length)
    var nTouched        = 0
    a.foreach { token =>
      postings.get(token).foreach { p =>
        var i = 0
        while (i < p.ids.length) {
          val f = p.ids(i)
          if (inter(f) == 0) { touched(nTouched) = f; nTouched += 1; priority(f) = p.priorities(i) }
          else if (p.priorities(i) < priority(f)) priority(f) = p.priorities(i)
          inter(f) += 1
          i += 1
        }
      }
    }

    def rawBonus(f: Int): Int = if (raw(f) && noState) 1 else 0
    def score(f: Int, metric: Metric): Double = Candidate.score(metric, inter(f), aSize, bSizes(f))
    def candidate(f: Int): Candidate = Candidate(ndbIds(f), inter(f), aSize, bSizes(f), priority(f), rawBonus(f))

    /** Tie-breaks (g)–(i) between two foods of equal score. */
    def beats(f: Int, g: Int): Boolean =
      if (rawBonus(f) != rawBonus(g)) rawBonus(f) > rawBonus(g)
      else if (priority(f) != priority(g)) priority(f) < priority(g)
      else f < g
  }

  /** Every food sharing a token with the ingredient key, scored by ScanCount. */
  def candidates(name: String, state: String, temp: String, df: String): Seq[Candidate] = {
    val s = new Scan(name, state, temp, df)
    (0 until s.nTouched).map(i => s.candidate(s.touched(i)))
  }

  /** The best candidate under `metric`, None when no token is shared:
    * score desc → raw bonus desc → best priority asc → ndbId asc.
    */
  def best(name: String, state: String, temp: String, df: String, metric: Metric): Option[Candidate] = {
    val s        = new Scan(name, state, temp, df)
    var win      = -1
    var winScore = 0.0
    var i        = 0
    while (i < s.nTouched) {
      val f     = s.touched(i)
      val score = s.score(f, metric)
      val c     = if (win < 0) 1 else java.lang.Double.compare(score, winScore)
      if (c > 0 || c == 0 && s.beats(f, win)) { win = f; winScore = score }
      i += 1
    }
    Option.when(win >= 0)(s.candidate(win))
  }

  /** Grams in one `stdUnit` of food `ndbId`: an exact mass unit, else the
    * food's own weight row, else a volume conversion from the food's first
    * volumetric unit (butter lists cup = 227 g, so teaspoon ≈ 4.73 g).
    */
  def gramsPer(ndbId: Option[Long], stdUnit: String): Option[Double] =
    Option(stdUnit).flatMap { u =>
      UnitTables.massGrams.get(u)
        .orElse(ndbId.flatMap(id => gramsPerUnit.get((id, u))))
        .orElse(ndbId.flatMap(firstVolumetric.get).flatMap { case (vu, vg) => UnitTables.convertVolumetric(vu, vg, u) })
    }
}

object ReferenceIndex {

  /** A food's description, token count |B|, "raw" flag and, if known, nutrients. */
  final case class Food(description: String, bSize: Int, hasRaw: Boolean, per100g: Option[Per100g])

  /** Nutrients in 100 g of a food. */
  final case class Per100g(kcal100g: Double, protein100g: Double, fat100g: Double, carb100g: Double)

  /** One (ingredient key, food) pair sharing at least one token. */
  final case class Candidate(ndbId: Long, inter: Long, aSize: Int, bSize: Int,
                             bestPriority: Int, rawBonus: Int) {
    def jstar: Double    = Candidate.score(Modified, inter, aSize, bSize)
    def jvanilla: Double = Candidate.score(Vanilla, inter, aSize, bSize)
    def score(metric: Metric): Double = Candidate.score(metric, inter, aSize, bSize)
  }

  object Candidate {
    /** J* = |A∩B| / |A| and J = |A∩B| / |A∪B|. */
    private[core] def score(metric: Metric, inter: Long, aSize: Int, bSize: Int): Double = metric match {
      case Modified => inter.toDouble / aSize
      case Vanilla  => inter.toDouble / (aSize + bSize - inter)
    }
  }

  /** One token's posting list: dense food ids and the token's comma-group priority in each. */
  private final case class Postings(ids: Array[Int], priorities: Array[Int])

  /** Build from (ndbId, description, nutrients) foods and gram-weight rows. */
  def apply(foods: Seq[(Long, String, Option[Per100g])], weights: Seq[UsdaWeight]): ReferenceIndex = {
    val described = foods.map { case (id, desc, n) => id -> (desc, n, TextPrep.prepDescription(desc)) }.toMap
    val ndbIds    = described.keys.toArray.sorted
    // USDA lists a food's dominant measures first, so the lowest seq wins.
    val std = weights.map(w => (w, UnitTables.standardize(w.unit))).filter(_._2.nonEmpty)
      .groupBy { case (w, u) => (w.ndbId, u) }.values.map(_.minBy(_._1.seq)).toSeq
    def gpa(w: UsdaWeight): Double = w.grams / w.amount
    new ReferenceIndex(
      ndbIds.indices.flatMap(f => described(ndbIds(f))._3.map(pt => (pt.token, f, pt.priority)))
        .groupBy(_._1).map { case (token, ps) => token -> Postings(ps.map(_._2).toArray, ps.map(_._3).toArray) },
      ndbIds,
      described.map { case (id, (desc, n, b)) => id -> Food(desc, b.size, TextPrep.descriptionHasRaw(desc), n) },
      std.map { case (w, u) => (w.ndbId, u) -> gpa(w) }.toMap,
      std.filter(r => UnitTables.isVolumetric(r._2)).groupBy(_._1.ndbId)
        .map { case (id, rs) => val (w, u) = rs.minBy(_._1.seq); id -> (u, gpa(w)) })
  }

  /** Every generated USDA food, with its nutrients, and every weight row; built once, without Spark. */
  lazy val usda: ReferenceIndex = ReferenceIndex(
    allFoods.map(f => (f.ndbId, f.description, Some(Per100g(f.kcal100g, f.protein100g, f.fat100g, f.carb100g)))),
    allWeights)

  /** Collect and index foods (ndbId, description, and the four per-100 g
    * columns if present) and/or weights (ndbId, seq, amount, unit, grams).
    */
  def collect(foods: Option[DataFrame], weights: Option[DataFrame]): ReferenceIndex =
    ReferenceIndex(
      foods.toSeq.flatMap { f =>
        val nutrients = Seq("kcal100g", "protein100g", "fat100g", "carb100g").filter(f.columns.contains)
        f.select("ndbId", "description" +: nutrients: _*).collect().map(r => (r.getLong(0), r.getString(1),
          Option.when(nutrients.length == 4)(Per100g(r.getDouble(2), r.getDouble(3), r.getDouble(4), r.getDouble(5)))))
      },
      weights.toSeq.flatMap(_.select("ndbId", "seq", "amount", "unit", "grams").collect()
        .map(r => UsdaWeight(r.getLong(0), r.getInt(1), r.getDouble(2), r.getString(3), r.getDouble(4)))))
}
