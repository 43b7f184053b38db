package repro.core

import org.apache.spark.sql.DataFrame
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
  *     retry steps 2–4.
  */
object UnitMatcher {

  /** §II-C plausibility threshold: more than 5 kg in one ingredient line
    * means the unit was mis-detected.
    */
  val MaxGramsPerLine: Double = 5000.0

  private val qtyUdf = udf { (q: String) => QuantityParser.parse(q) }
  private val stdUdf = udf { (u: String) => UnitTables.standardize(u) }

  /** Full §II-C resolution.
    *
    * @param lines   columns: name (extracted ingredient name), quantity
    *                (textual), unit (raw), size (size word or ""), ndbId
    *                (matched food, nullable)
    * @param weights USDA gram-weight table: ndbId, seq, amount, unit, grams
    * @return input plus qty, stdUnit, resolvedUnit, gramsPerUnit, grams,
    *         unitResolved
    */
  def resolve(lines: DataFrame, weights: DataFrame): DataFrame =
    resolve(lines, ReferenceIndex.collect(None, Some(weights)))

  /** [[resolve]] against a built index. */
  def resolve(lines: DataFrame, index: ReferenceIndex): DataFrame = {
    val gpaUdf = udf { (ndbId: java.lang.Long, stdUnit: String) =>
      index.gramsPer(Option(ndbId).map(_.longValue), stdUnit)
    }

    val prepared = lines
      .withColumn("qty", coalesce(qtyUdf(col("quantity")), lit(1.0)))
      .withColumn("stdUnit",
        when(stdUdf(col("unit")) =!= "", stdUdf(col("unit")))
          .when(col("size") =!= "", lit("size"))
          .otherwise(lit("")))

    // Pass 1: resolve the detected unit; invalidate implausible results.
    val p1 = prepared
      .withColumn("gpa1", gpaUdf(col("ndbId"), col("stdUnit")))
      .withColumn("gpa1",
        when(col("qty") * col("gpa1") > MaxGramsPerLine, lit(null)).otherwise(col("gpa1")))

    // Most-frequent successfully-resolved unit per name (ties: first A–Z).
    val modes = p1
      .filter(col("gpa1").isNotNull && col("stdUnit") =!= "")
      .groupBy(col("name"), col("stdUnit")).agg(count(lit(1)).as("cnt"))
      .groupBy(col("name"))
      .agg(min(struct((-col("cnt")).as("negCnt"), col("stdUnit"))).getField("stdUnit").as("modeUnit"))

    // Pass 2: unresolved lines retry with the fallback unit.
    val p2 = p1
      .join(modes, Seq("name"), "left")
      .withColumn("fbUnit", when(col("gpa1").isNull, col("modeUnit")).otherwise(lit(null)))
      .withColumn("gpa2", gpaUdf(col("ndbId"), col("fbUnit")))

    p2
      .withColumn("gramsPerUnit", coalesce(col("gpa1"), col("gpa2")))
      .withColumn("resolvedUnit",
        when(col("gpa1").isNotNull, col("stdUnit"))
          .when(col("gpa2").isNotNull, col("fbUnit"))
          .otherwise(lit(null)))
      .withColumn("grams", col("qty") * col("gramsPerUnit"))
      .withColumn("unitResolved", col("grams").isNotNull)
      .drop("modeUnit", "fbUnit", "gpa1", "gpa2")
  }
}
