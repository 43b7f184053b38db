package perfbench

import org.scalatest.funsuite.AnyFunSuite

import repro.data.UsdaData

class LongtailSpec extends AnyFunSuite {

  private def names(in: Input): Set[String] =
    in.lines.map(_.phrase.split(" ").dropWhile(w => w.head.isDigit).drop(1).mkString(" ")).toSet

  test("the same seed gives the same lines, truth and unique-key count") {
    val a = Longtail.input(3000, seed = 11)
    val b = Longtail.input(3000, seed = 11)
    assert(a == b)
    assert(names(a).size == names(b).size)
    assert(names(a).size > 1000, "names drawn from 1,050 descriptions should be mostly distinct")
  }

  test("another seed gives other lines") {
    assert(Longtail.input(3000, seed = 11).lines != Longtail.input(3000, seed = 12).lines)
  }

  test("each name is 1-3 words of its true food's description, in recipes of 8 lines") {
    val in    = Longtail.input(2000, seed = 5)
    val foods = UsdaData.allFoods.map(f => f.ndbId -> f.description.toLowerCase.split("[^a-z]+").toSet).toMap
    for ((line, ndbId) <- in.lines.zip(in.trueNdbId)) {
      val words = line.phrase.split(" ").dropWhile(w => w.head.isDigit).drop(1)
      assert(words.length >= 1 && words.length <= 3, line.phrase)
      assert(words.forall(foods(ndbId)), s"${line.phrase} vs food $ndbId")
    }
    assert(in.recipes.values.forall(_._2 == Longtail.LinesPerRecipe))
    assert(in.goldKcalPerServing.keySet == in.recipes.keySet)
    assert(in.goldKcalPerServing.values.forall(k => k > 0 && !k.isInfinite))
  }
}
