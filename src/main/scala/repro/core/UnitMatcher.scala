package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Units matching and gram resolution (§II-C).
  *
  * For every ingredient line (already matched to a USDA food), resolve how
  * many grams one unit of its measure weighs, through the paper's chain:
  *
  *  1. clean the unit (lemmatize → first word → letters only) and resolve
  *     aliases ('tbsp' → tablespoon) via [[UnitTables.standardize]];
  *  2. exact mass units (g/kg/oz/lb) convert directly;
  *  3. look the unit up in the food's USDA gram-weight table;
  *  4. if absent but volumetric, derive it from any volumetric unit the food
  *     does list, using the Book-of-Yields volume table (butter has cup=227g,
  *     so teaspoon = 227 × 4.93/236.59 ≈ 4.73g);
  *  5. sizes small/medium/large are one equivalent unit ("size");
  *  6. implausible results (> 5 kg for one line, the '500 cups' failure mode)
  *     invalidate the unit;
  *  7. lines still unresolved (missing or invalid unit) fall back to the
  *     ingredient's corpus-wide most-frequent successfully-resolved unit and
  *     retry steps 2–4 and 6.
  *
  * [[firstPass]] and [[finish]] are the chain's only definition; [[resolve]]
  * applies them through UDFs around the corpus-wide statistic of step 7, one
  * `mode` window over `name` with ties going to the first unit A–Z.
  */
object UnitMatcher {

  /** §II-C plausibility threshold: more than 5 kg in one ingredient line
    * means the unit was mis-detected.
    */
  val MaxGramsPerLine: Double = 5000.0

  /** One line after steps 1–6: quantity (1 if its text is empty, None if it
    * does not parse), standardized unit ("size" for a bare size word, "" for
    * none) and the grams in one such unit if the line stays plausible.
    */
  final case class FirstPass(qty: Option[Double], stdUnit: String, stdGramsPerUnit: Option[Double])

  /** One line after step 7: its grams and nutrients, all None when unresolved,
    * and whether its grams (`unitResolved`), food (`nameMapped`) or both are known.
    */
  final case class Resolved(resolvedUnit: Option[String], gramsPerUnit: Option[Double], grams: Option[Double],
                            estKcal: Option[Double], estProtein: Option[Double],
                            estFat: Option[Double], estCarb: Option[Double],
                            unitResolved: Boolean, nameMapped: Boolean, fullyMapped: Boolean)

  /** `gramsPerUnit` when `qty` of it weighs from 0 to [[MaxGramsPerLine]]. */
  private def plausible(qty: Option[Double], gramsPerUnit: Option[Double]): Option[Double] =
    gramsPerUnit.filter(g => qty.exists(q => q * g >= 0 && q * g <= MaxGramsPerLine))

  /** Steps 1–6 for one line's extracted quantity, unit and size words. */
  def firstPass(index: ReferenceIndex, quantity: String, unit: String, size: String,
                ndbId: Option[Long]): FirstPass = {
    val qty = if (quantity == null || quantity.trim.isEmpty) Some(1.0) else QuantityParser.parse(quantity)
    val stdUnit = UnitTables.standardize(unit) match {
      case "" if size != null && size.nonEmpty => "size"
      case u                                   => u
    }
    FirstPass(qty, stdUnit, plausible(qty, index.gramsPer(ndbId, stdUnit)))
  }

  /** Step 7 with the name's most frequent unit (null when none), then
    * grams = quantity × grams per unit and each nutrient = grams × per-100 g / 100.
    */
  def finish(index: ReferenceIndex, ndbId: Option[Long], p: FirstPass, modeUnit: String): Resolved = {
    val unit = p.stdGramsPerUnit.map(p.stdUnit -> _)
      .orElse(plausible(p.qty, index.gramsPer(ndbId, modeUnit)).map(modeUnit -> _))
    val grams   = for ((_, g) <- unit; q <- p.qty) yield q * g
    val per100g = ndbId.flatMap(index.foods.get).flatMap(_.per100g)
    def est(x: ReferenceIndex.Per100g => Double) = for (g <- grams; n <- per100g) yield g * x(n) / 100.0
    Resolved(unit.map(_._1), unit.map(_._2), grams, est(_.kcal100g), est(_.protein100g), est(_.fat100g), est(_.carb100g),
             grams.isDefined, ndbId.isDefined, grams.isDefined && ndbId.isDefined)
  }

  /** Full §II-C resolution.
    *
    * @param lines   columns: name (extracted ingredient name), quantity
    *                (textual), unit (raw), size (size word or ""), ndbId
    *                (matched food, nullable)
    * @param weights USDA gram-weight table: ndbId, seq, amount, unit, grams
    * @return the input columns in their order, then [[FirstPass]]'s qty and
    *         stdUnit, then every field of [[Resolved]] (the nutrients null
    *         without foods in the index)
    */
  def resolve(lines: DataFrame, weights: DataFrame): DataFrame =
    resolve(lines, ReferenceIndex.collect(None, Some(weights)))

  /** [[resolve]] against a built index. */
  def resolve(lines: DataFrame, index: ReferenceIndex): DataFrame = {
    val firstUdf = udf { (quantity: String, unit: String, size: String, ndbId: java.lang.Long) =>
      firstPass(index, quantity, unit, size, Option(ndbId).map(_.longValue))
    }.withName("firstPass")
    val finishUdf = udf { (p: FirstPass, ndbId: java.lang.Long, modeUnit: String) =>
      finish(index, Option(ndbId).map(_.longValue), p, modeUnit)
    }.withName("finish")
    // Each name's mode over the units the first pass resolved, as a window
    // over `name` (mode skips the nulls; ties go to the first unit A–Z).
    val modeUnit = mode(when(col("p1.stdGramsPerUnit").isNotNull, col("p1.stdUnit")), deterministic = true)
      .over(Window.partitionBy("name"))

    lines
      .withColumn("p1", firstUdf(col("quantity"), col("unit"), col("size"), col("ndbId")))
      .withColumn("r", finishUdf(col("p1"), col("ndbId"), modeUnit))
      .select(lines.columns.toSeq.map(col) ++ Seq(col("p1.qty"), col("p1.stdUnit"), col("r.*")): _*)
  }
}
