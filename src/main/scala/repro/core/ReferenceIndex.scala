package repro.core

import org.apache.spark.sql.DataFrame

import repro.core.JaccardMatcher.{Metric, Modified, Vanilla}
import repro.data.UsdaData.UsdaWeight

/** The USDA side of §II-B matching, §II-C unit lookup and the nutrients,
  * collected once on the driver and captured in UDF closures the way
  * [[NerPipeline]] captures the NER model. Its methods are the only
  * definition of J* and J scoring with their tie-breaks, and of the mass →
  * USDA weight → volume-conversion chain.
  */
final class ReferenceIndex private (
    postings: Map[String, Seq[(Long, Int)]],          // token → (ndbId, comma-group priority)
    val foods: Map[Long, ReferenceIndex.Food],
    val gramsPerUnit: Map[(Long, String), Double],    // (ndbId, standardized unit) → g, lowest seq
    val firstVolumetric: Map[Long, (String, Double)], // ndbId → lowest-seq volumetric (unit, g)
) extends Serializable {
  import ReferenceIndex._

  /** Every food sharing a token with the ingredient key, scored by
    * ScanCount: one pass over the posting lists of A's tokens counts |A∩B|
    * and the best matched-term priority per food.
    */
  def candidates(name: String, state: String, temp: String, df: String): Seq[Candidate] = {
    val a       = TextPrep.prepIngredient(name, state, temp, df)
    val noState = state == null || state.isEmpty
    a.toSeq.flatMap(postings.getOrElse(_, Nil)).groupMap(_._1)(_._2).map { case (ndbId, priorities) =>
      val f = foods(ndbId)
      Candidate(ndbId, priorities.size.toLong, a.size, f.bSize, priorities.min, if (f.hasRaw && noState) 1 else 0)
    }.toSeq
  }

  /** The best candidate under `metric`, None when no token is shared:
    * score desc → raw bonus desc → best priority asc → ndbId asc.
    */
  def best(name: String, state: String, temp: String, df: String, metric: Metric): Option[Candidate] =
    candidates(name, state, temp, df).minOption(
      Ordering.by((c: Candidate) => (-c.score(metric), -c.rawBonus, c.bestPriority, c.ndbId))(
        Ordering.Tuple4(Ordering.Double.TotalOrdering, Ordering.Int, Ordering.Int, Ordering.Long)))

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
    def jstar: Double    = inter.toDouble / aSize
    def jvanilla: Double = inter.toDouble / (aSize + bSize - inter)
    def score(metric: Metric): Double = metric match {
      case Modified => jstar
      case Vanilla  => jvanilla
    }
  }

  /** Build from (ndbId, description, nutrients) foods and gram-weight rows. */
  def apply(foods: Seq[(Long, String, Option[Per100g])], weights: Seq[UsdaWeight]): ReferenceIndex = {
    val prepped = foods.map { case (id, desc, n) => (id, desc, n, TextPrep.prepDescription(desc)) }
    // USDA lists a food's dominant measures first, so the lowest seq wins.
    val std = weights.map(w => (w, UnitTables.standardize(w.unit))).filter(_._2.nonEmpty)
      .groupBy { case (w, u) => (w.ndbId, u) }.values.map(_.minBy(_._1.seq)).toSeq
    def gpa(w: UsdaWeight): Double = w.grams / w.amount
    new ReferenceIndex(
      prepped.flatMap { case (id, _, _, b) => b.map(pt => pt.token -> (id, pt.priority)) }.groupMap(_._1)(_._2),
      prepped.map { case (id, desc, n, b) => id -> Food(desc, b.size, TextPrep.descriptionHasRaw(desc), n) }.toMap,
      std.map { case (w, u) => (w.ndbId, u) -> gpa(w) }.toMap,
      std.filter(r => UnitTables.isVolumetric(r._2)).groupBy(_._1.ndbId)
        .map { case (id, rs) => val (w, u) = rs.minBy(_._1.seq); id -> (u, gpa(w)) })
  }

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
