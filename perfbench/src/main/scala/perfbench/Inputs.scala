package perfbench

import scala.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.UnitTables
import repro.data.{RecipeData, UsdaData}

/** One ingredient line as the pipeline receives it. */
final case class Line(recipeId: Long, lineNo: Int, phrase: String, servings: Int)

/** One workload input: the lines the pipeline receives, plus the ground truth
  * the benchmark scores against and that the pipeline never sees.
  *
  * @param trueNdbId          per line, aligned with `lines`; -1 when the line
  *                           has no USDA counterpart
  * @param goldKcalPerServing per recipe
  */
final case class Input(lines: IndexedSeq[Line], trueNdbId: IndexedSeq[Long],
                       goldKcalPerServing: Map[Long, Double]) {
  require(lines.length == trueNdbId.length, "one truth per line")

  /** recipeId -> (servings, number of lines). */
  lazy val recipes: Map[Long, (Int, Int)] =
    lines.groupBy(_.recipeId).map { case (id, ls) => id -> (ls.head.servings, ls.length) }

  /** The lines as a DataFrame over a parallelized RDD. Not a local relation:
    * Spark evaluates projections of one on the driver while planning, which
    * would take the NER UDF out of the timed tasks.
    */
  def toDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    spark.sparkContext.parallelize(lines, spark.sparkContext.defaultParallelism).toDF()
  }
}

/** The workloads' inputs, each made from the run's seed. */
object Inputs {

  // Sized so that set-up, a cold pass and two warm passes last about 50 s:
  // the benchmark runs each workload 22 times within a fixed budget.

  /** `corpus` scale factor (SF=1 is the paper's 118,071 recipes). */
  val CorpusSf: Double = 0.05

  /** `longtail` size in lines. */
  val LongtailLines: Int = 12000

  /** RecipeData's corpus at [[CorpusSf]], with its ground truth. */
  def corpus(spark: SparkSession, seed: Long): Input = {
    import spark.implicits._
    val rows = RecipeData.ingredientLines(spark, CorpusSf, seed)
      .select($"recipeId", $"lineNo", $"phrase", $"servings", $"trueNdbId")
      .as[(Long, Int, String, Int, Long)].collect().toIndexedSeq
    val gold = RecipeData.recipes(spark, CorpusSf, seed)
      .select($"recipeId", $"goldKcalPerServing").as[(Long, Double)].collect().toMap
    Input(rows.map { case (r, l, p, s, _) => Line(r, l, p, s) }, rows.map(_._5), gold)
  }
}

/** The `longtail` workload's phrases: "QTY UNIT name", where the name is 1–3
  * words drawn from one USDA food description. Such names are far more varied
  * than RecipeData's aliases, so the matcher sees many distinct ingredient
  * keys, as it would on the long-tail vocabulary of a real scraped corpus.
  */
object Longtail {

  val LinesPerRecipe: Int = 8

  private val quantities = IndexedSeq(
    "1" -> 1.0, "2" -> 2.0, "3" -> 3.0, "1/2" -> 0.5, "1/4" -> 0.25, "3/4" -> 0.75, "1 1/2" -> 1.5)
  private val massUnits = IndexedSeq(
    "g" -> "gram", "grams" -> "gram", "oz" -> "ounce", "lb" -> "pound", "kg" -> "kilogram")

  private lazy val foods = UsdaData.allFoods.toIndexedSeq

  /** Per food, its standardized USDA units with grams per unit, first listed first. */
  private lazy val foodUnits: Map[Long, IndexedSeq[(String, Double)]] =
    UsdaData.allWeights.groupBy(_.ndbId).map { case (id, ws) =>
      id -> ws.sortBy(_.seq)
        .map(w => UnitTables.standardize(w.unit) -> w.grams / w.amount)
        .filter { case (u, _) => u.nonEmpty && u != "size" }
        .distinctBy(_._1).toIndexedSeq
    }

  private def words(description: String): IndexedSeq[String] =
    description.toLowerCase.split("[^a-z]+").filter(_.length >= 3).distinct.toIndexedSeq

  /** `n` lines made from `seed`, in recipes of [[LinesPerRecipe]] lines. The
    * truth is the food the name was drawn from; its grams are exact, because
    * the unit is a mass unit or one the food's USDA weights list.
    */
  def input(n: Int, seed: Long): Input = {
    val rng      = new Random(seed)
    val lines    = IndexedSeq.newBuilder[Line]
    val truth    = IndexedSeq.newBuilder[Long]
    val kcal     = scala.collection.mutable.LinkedHashMap.empty[Long, Double]
    var servings = 0
    for (i <- 0 until n) {
      val recipeId = (i / LinesPerRecipe).toLong
      val lineNo   = i % LinesPerRecipe + 1
      if (lineNo == 1) servings = 2 + rng.nextInt(7)
      val food = foods(rng.nextInt(foods.length))
      val ws   = words(food.description)
      val name = rng.shuffle(ws).take(1 + rng.nextInt(math.min(3, ws.length))).mkString(" ")
      val (qtyText, qty) = quantities(rng.nextInt(quantities.length))
      val units = foodUnits.getOrElse(food.ndbId, IndexedSeq.empty)
      val (unitText, gramsPerUnit) =
        if (units.nonEmpty && rng.nextBoolean()) units(rng.nextInt(units.length))
        else {
          val (text, std) = massUnits(rng.nextInt(massUnits.length))
          text -> UnitTables.massGrams(std)
        }
      lines += Line(recipeId, lineNo, s"$qtyText $unitText $name", servings)
      truth += food.ndbId
      kcal(recipeId) = kcal.getOrElse(recipeId, 0.0) + qty * gramsPerUnit * food.kcal100g / 100.0
    }
    val ls = lines.result()
    val servingsOf = ls.map(l => l.recipeId -> l.servings).toMap
    Input(ls, truth.result(), kcal.map { case (r, k) => r -> k / servingsOf(r) }.toMap)
  }
}
