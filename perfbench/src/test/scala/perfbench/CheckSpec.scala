package perfbench

import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.expressions.GenericRowWithSchema
import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite

class CheckSpec extends AnyFunSuite {

  private val sums = Seq("estKcal", "estProtein", "estFat", "estCarb")

  private val lineSchema = StructType(Seq(
    StructField("recipeId", LongType), StructField("lineNo", IntegerType), StructField("ndbId", LongType),
    StructField("resolvedUnit", StringType), StructField("grams", DoubleType),
    StructField("nameMapped", BooleanType), StructField("fullyMapped", BooleanType),
  ) ++ sums.map(StructField(_, DoubleType)))

  private val recipeSchema = StructType(
    Seq(StructField("recipeId", LongType), StructField("servings", IntegerType)) ++
    Seq("nLines", "nNameMapped", "nFullyMapped").map(StructField(_, LongType)) ++
    (sums :+ "estKcalPerServing").map(StructField(_, DoubleType)))

  private def line(recipe: Long, no: Int, ndbId: Option[Long], grams: Option[Double]): Row = {
    val kcal = grams.map(_ * 0.6)
    new GenericRowWithSchema(Array[Any](recipe, no, ndbId.orNull, grams.map(_ => "cup").orNull, grams.orNull,
      ndbId.isDefined, grams.isDefined, kcal.orNull, null, null, null), lineSchema)
  }

  private def recipe(id: Long, servings: Int, n: Long, mapped: Long, kcal: Double): Row =
    new GenericRowWithSchema(Array[Any](id, servings, n, mapped, mapped, kcal, 0.0, 0.0, 0.0, kcal / servings),
      recipeSchema)

  private val input = Input(
    IndexedSeq(Line(1, 1, "1 cup a", 2), Line(1, 2, "1 cup b", 2), Line(2, 1, "1 cup c", 4)),
    IndexedSeq(10L, 11L, -1L), Map(1L -> 45.0, 2L -> 5.0))
  private val lines   = Seq(line(1, 1, Some(10), Some(100)), line(1, 2, Some(12), Some(50)), line(2, 1, None, None))
  private val recipes = Array(recipe(1, 2, 2, 2, 90.0), recipe(2, 4, 1, 0, 0.0))

  test("a consistent output passes") {
    assert(Check.pass(input, lines, recipes) == Nil)
  }

  test("a line output twice while another is missing fails") {
    assert(Check.pass(input, Seq(lines(0), lines(0), lines(2)), recipes).nonEmpty)
  }

  test("negative or non-finite grams fail") {
    assert(Check.pass(input, lines.updated(0, line(1, 1, Some(10), Some(-1))), recipes).nonEmpty)
    assert(Check.pass(input, lines.updated(0, line(1, 1, Some(10), Some(Double.NaN))), recipes).nonEmpty)
  }

  test("a per-recipe sum or count that disagrees with the lines fails") {
    assert(Check.pass(input, lines, recipes.updated(0, recipe(1, 2, 2, 2, 91.0))).nonEmpty)
    assert(Check.pass(input, lines, recipes.updated(1, recipe(2, 4, 1, 1, 0.0))).nonEmpty)
    assert(Check.pass(input, lines, recipes.take(1)).nonEmpty)
  }

  test("quality scores") {
    assert(Check.lineMatchPct(input, lines) == 50.0) // two lines have a true food; one matched it
    assert(math.abs(Check.fullyMappedPct(lines) - 200.0 / 3) < 1e-9)
    assert(Check.kcalMae(input, recipes) == 0.0)     // only recipe 1 is fully mapped: 90 / 2 = 45
  }

  test("the digest ignores row order and sees any changed grams") {
    assert(Check.digest(lines) == Check.digest(lines.reverse))
    assert(Check.digest(lines) != Check.digest(lines.updated(1, line(1, 2, Some(12), Some(51)))))
  }
}
