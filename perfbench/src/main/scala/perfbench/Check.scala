package perfbench

import org.apache.spark.sql.{DataFrame, Observation, Row}
import org.apache.spark.sql.functions._

/** Output checks and quality scores.
  *
  * A pass hands its per-line rows to the driver through an [[Observation]]
  * taken while the pass runs, so checking them does not compute the output a
  * second time.
  */
object Check {

  /** Per-line output columns the checks read. */
  val RowColumns: Seq[String] = Seq(
    "recipeId", "lineNo", "ndbId", "resolvedUnit", "grams", "nameMapped", "fullyMapped",
    "estKcal", "estProtein", "estFat", "estCarb")

  private val SumColumns = Seq("estKcal", "estProtein", "estFat", "estCarb")

  /** `perLine`, with its [[RowColumns]] collected into `obs` when it is computed. */
  def observe(perLine: DataFrame, obs: Observation): DataFrame =
    perLine.observe(obs, collect_list(struct(RowColumns.map(col): _*)).as("rows"))

  def rows(obs: Observation): Seq[Row] = obs.get("rows").asInstanceOf[Seq[Row]]

  private def key(r: Row): (Long, Int) = (r.getAs[Long]("recipeId"), r.getAs[Int]("lineNo"))

  private def double(r: Row, c: String): Option[Double] = Option(r.getAs[Any](c)).map(_.asInstanceOf[Double])

  private def finiteNonNeg(x: Option[Double]): Boolean = x.forall(d => !d.isNaN && !d.isInfinite && d >= 0)

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  /** Order-independent digest of per-line (recipeId, lineNo, ndbId,
    * resolvedUnit, grams): equal outputs give equal digests on any commit.
    */
  def digest(lines: Seq[Row]): Long =
    lines.iterator.map { r =>
      (key(r), r.getAs[Any]("ndbId"), r.getAs[Any]("resolvedUnit"), r.getAs[Any]("grams")).## & 0xffffffffL
    }.sum

  /** Problems in one pass's output; empty when it is correct.
    *
    * Each input (recipeId, lineNo) must come out exactly once; grams and kcal
    * must be null or finite and non-negative; each recipe's servings and line
    * count must match the input; and each per-recipe count and sum must equal
    * the one recomputed on the driver from the per-line rows.
    *
    * @param lines   the pass's per-line rows ([[RowColumns]])
    * @param recipes the rows of `NutritionEstimator.perRecipe`
    */
  def pass(input: Input, lines: Seq[Row], recipes: Array[Row]): Seq[String] = {
    val problems = Seq.newBuilder[String]
    def expect(ok: Boolean, what: => String): Unit = if (!ok) problems += what

    val keys = lines.map(key)
    expect(keys.length == input.lines.length &&
             keys.toSet == input.lines.iterator.map(l => (l.recipeId, l.lineNo)).toSet,
           s"${keys.length} output lines do not match the ${input.lines.length} input lines one to one")
    val bad = lines.count(r => !finiteNonNeg(double(r, "grams")) || !finiteNonNeg(double(r, "estKcal")))
    expect(bad == 0, s"$bad lines with grams or kcal negative or not finite")

    expect(recipes.length == input.recipes.size, s"${recipes.length} recipes for ${input.recipes.size}")
    expect(recipes.map(_.getAs[Long]("nLines")).sum == input.lines.length,
           "per-recipe nLines do not sum to the input line count")
    val byRecipe = lines.groupBy(_.getAs[Long]("recipeId"))
    for (r <- recipes) {
      val id = r.getAs[Long]("recipeId")
      val ls = byRecipe.getOrElse(id, Seq.empty)
      def count(c: String): Long = ls.count(_.getAs[Boolean](c)).toLong
      expect(input.recipes.get(id).contains((r.getAs[Int]("servings"), r.getAs[Long]("nLines").toInt)),
             s"recipe $id: servings or nLines differ from the input")
      for (c <- SumColumns :+ "estKcalPerServing")
        expect(finiteNonNeg(double(r, c)), s"recipe $id: $c = ${r.getAs[Any](c)}")
      expect(ls.length == r.getAs[Long]("nLines") &&
               count("nameMapped") == r.getAs[Long]("nNameMapped") &&
               count("fullyMapped") == r.getAs[Long]("nFullyMapped") &&
               SumColumns.forall(c => close(ls.flatMap(double(_, c)).sum, r.getAs[Double](c))),
             s"recipe $id: counts or sums differ from the driver-side recomputation")
    }
    problems.result()
  }

  /** Percentage of lines with a USDA counterpart whose matched `ndbId` is the true one. */
  def lineMatchPct(input: Input, lines: Seq[Row]): Double = {
    val truth = input.lines.iterator.map(l => (l.recipeId, l.lineNo)).zip(input.trueNdbId.iterator).toMap
    val mappable = lines.filter(r => truth.getOrElse(key(r), -1L) >= 0)
    val matched  = mappable.count(r => r.getAs[Any]("ndbId") == truth(key(r)))
    matched * 100.0 / math.max(1, mappable.length)
  }

  /** Percentage of lines with both a food and grams. */
  def fullyMappedPct(lines: Seq[Row]): Double =
    lines.count(_.getAs[Boolean]("fullyMapped")) * 100.0 / math.max(1, lines.length)

  /** Mean absolute per-serving kcal error over recipes whose every line was
    * fully mapped: the paper's 36.42 kcal metric. Rounded to 1e-6 kcal so
    * that floating-point summation order cannot change it.
    */
  def kcalMae(input: Input, recipes: Array[Row]): Double = {
    val errs = recipes.filter(r => r.getAs[Long]("nFullyMapped") == r.getAs[Long]("nLines")).flatMap { r =>
      input.goldKcalPerServing.get(r.getAs[Long]("recipeId"))
        .map(gold => math.abs(r.getAs[Double]("estKcalPerServing") - gold))
    }
    math.rint(errs.sum / math.max(1, errs.length) * 1e6) / 1e6
  }
}
