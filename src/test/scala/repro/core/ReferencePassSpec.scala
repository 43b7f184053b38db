package repro.core

import scala.collection.mutable

import org.apache.spark.sql.Row

import repro.{SparkSpec, TestModels}

/** A plain-Scala reference pass over SF 0.01 seed 7, compared with Spark's
  * `perLine` and `perRecipe` rows of [[TestModels.sf001]] column by column
  * (differential testing: McKeeman, *Differential Testing for Software*, 1998).
  *
  * The loop calls the program's own per-line functions: `extractPhrase` once
  * per distinct phrase, `best` once per distinct ingredient key, `firstPass`,
  * then `finish` with each name's mode of first-pass-resolved units. Only the
  * orchestration is restated here: the distinct phrases and keys, the join
  * back, the mode with `resolve`'s tie rule (highest count, then the first
  * unit A–Z) and the per-recipe sums. Every per-line column is a field of a
  * stage record, so a column Spark adds without one fails the first test.
  */
class ReferencePassSpec extends SparkSpec {

  private def run = TestModels.sf001

  private def key(r: Row): (Long, Int) = (r.getAs[Long]("recipeId"), r.getAs[Int]("lineNo"))

  private def orNull(o: Option[Any]): Any = o.orNull

  /** A stage record's fields by name, None as null, as Spark's columns hold them. */
  private def fields(record: Product): Seq[(String, Any)] =
    record.productElementNames.zip(record.productIterator.map {
      case o: Option[Any] @unchecked => orNull(o)
      case v                         => v
    }).toSeq

  /** Each line's columns by name, keyed by (recipeId, lineNo). */
  private lazy val local: Map[(Long, Int), Map[String, Any]] = {
    val index     = ReferenceIndex.usda
    val extracted = mutable.HashMap.empty[String, NerPipeline.Extracted]
    val matched   = mutable.HashMap.empty[(String, String, String, String), Option[ReferenceIndex.Candidate]]
    val stage1 = run.lines.map { l =>
      val (recipeId, lineNo, phrase, servings) = (l.getLong(0), l.getInt(1), l.getString(2), l.getInt(3))
      val e = extracted.getOrElseUpdate(phrase, NerPipeline.extractPhrase(TestModels.ner, phrase))
      val m = matched.getOrElseUpdate((e.name, e.state, e.temp, e.df),
        index.best(e.name, e.state, e.temp, e.df, JaccardMatcher.Modified))
      (recipeId, lineNo, phrase, servings, e, m, UnitMatcher.firstPass(index, e.quantity, e.unit, e.size, m.map(_.ndbId)))
    }
    val modeUnit: Map[String, String] = stage1
      .collect { case (_, _, _, _, e, _, p) if p.stdGramsPerUnit.isDefined => (e.name, p.stdUnit) }
      .groupBy(_._1)
      .map { case (name, units) => name -> units.groupBy(_._2).toSeq.minBy { case (u, n) => (-n.size, u) }._1 }
    stage1.map { case (recipeId, lineNo, phrase, servings, e, m, p) =>
      val ndbId = m.map(_.ndbId)
      val r     = UnitMatcher.finish(index, ndbId, p, modeUnit.getOrElse(e.name, null))
      (recipeId, lineNo) -> (
        Seq("recipeId" -> recipeId, "lineNo" -> lineNo, "phrase" -> phrase, "servings" -> servings) ++ fields(e) ++
        Seq("ndbId" -> orNull(ndbId), "score" -> orNull(m.map(_.score(JaccardMatcher.Modified)))) ++
        fields(p).filter(_._1 != "stdGramsPerUnit") ++ fields(r)).toMap
    }.toMap
  }

  /** Equal, nulls included; doubles within 1e-9 relative when `tolerant`. */
  private def same(a: Any, b: Any, tolerant: Boolean): Boolean = (a, b) match {
    case (x: Double, y: Double) if tolerant => math.abs(x - y) <= 1e-9 * math.max(math.abs(x), math.abs(y))
    case _                                  => a == b
  }

  /** The cells of `rows` that differ from `want`, as (row key, column, Spark's value, the reference's). */
  private def diffs[K](rows: Seq[Row], rowKey: Row => K, want: Map[K, Map[String, Any]],
                       tolerant: Boolean): Seq[(K, String, Any, Any)] =
    for (r <- rows; c <- r.schema.fieldNames.toSeq if !same(r.getAs[Any](c), want(rowKey(r))(c), tolerant))
      yield (rowKey(r), c, r.getAs[Any](c), want(rowKey(r))(c))

  test("every perLine column equals the reference pass's, line by line") {
    val columns = run.perLine.head.schema.fieldNames.toSeq
    assert(columns.toSet == local.head._2.keySet, "a perLine column without a stage-record field")
    assert(columns.distinct.length == columns.length)
    assert(run.perLine.map(key).sorted == local.keys.toSeq.sorted)
    val bad = diffs(run.perLine, key, local, tolerant = false)
    assert(bad.isEmpty, s"${bad.size} cells differ, e.g. ${bad.take(5)}")
  }

  test("every perRecipe column equals the reference pass's sums, recipe by recipe") {
    val want = local.values.groupBy(_("recipeId").asInstanceOf[Long]).map { case (id, ls) =>
      val servings = ls.head("servings").asInstanceOf[Int]
      def n(flag: String)  = ls.count(_(flag) == true).toLong
      def sum(c: String)   = ls.iterator.map(l => Option(l(c)).fold(0.0)(_.asInstanceOf[Double])).sum
      id -> Map[String, Any](
        "recipeId" -> id, "servings" -> servings, "nLines" -> ls.size.toLong,
        "nNameMapped" -> n("nameMapped"), "nFullyMapped" -> n("fullyMapped"),
        "estKcal" -> sum("estKcal"), "estProtein" -> sum("estProtein"),
        "estFat" -> sum("estFat"), "estCarb" -> sum("estCarb"),
        "pctNameMapped" -> n("nameMapped") * 100.0 / ls.size, "pctFullyMapped" -> n("fullyMapped") * 100.0 / ls.size,
        "estKcalPerServing" -> (if (servings > 0) sum("estKcal") / servings else null))
    }
    val recipes = run.perRecipe
    assert(recipes.head.schema.fieldNames.toSet == want.head._2.keySet)
    assert(recipes.map(_.getAs[Long]("recipeId")).sorted == want.keys.toSeq.sorted)
    val bad = diffs(recipes, (r: Row) => r.getAs[Long]("recipeId"), want, tolerant = true)
    assert(bad.isEmpty, s"${bad.size} cells differ, e.g. ${bad.take(5)}")
  }

  test("the reference pass reproduces the pinned per-line digest 13938da02b56") {
    // ReferenceIndexSpec pins the same digest on Spark's rows.
    assert(local.size == 10021)
    assert(TestModels.lineDigest(local.values) == "13938da02b56")
  }
}
