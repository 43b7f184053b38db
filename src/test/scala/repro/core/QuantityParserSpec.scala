package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import repro.PropChecks

/** §II-C quantity normalization: every textual quantity maps to one number. */
class QuantityParserSpec extends AnyFunSuite with PropChecks {

  private val cases = Seq(
    "1"      -> 1.0,
    "2"      -> 2.0,
    "500"    -> 500.0,
    "1/2"    -> 0.5,
    "1/4"    -> 0.25,
    "3/4"    -> 0.75,
    "1/8"    -> 0.125,
    "1/3"    -> 1.0 / 3,
    "2 1/2"  -> 2.5,      // paper example
    "1 1/2"  -> 1.5,
    "1 1/4"  -> 1.25,
    "7 3/4"  -> 7.75,
    "3 1/8"  -> 3.125,
    "9 1/2"  -> 9.5,
    "2/3"    -> 2.0 / 3,
    "2-4"    -> 3.0,      // paper example: averaged
    "1-2"    -> 1.5,
    "2 - 4"  -> 3.0,
    "0.5"    -> 0.5,
    "1.25"   -> 1.25,
    "10-20"  -> 15.0,
    "1 to 2" -> 1.5,      // ranges spelled with 'to'
    "2 to 4" -> 3.0,
    "½"      -> 0.5,      // Unicode vulgar fractions
    "¼"      -> 0.25,
    "¾"      -> 0.75,
    "⅓"      -> 1.0 / 3,
    "⅔"      -> 2.0 / 3,
    "⅛"      -> 0.125,
    "1½"     -> 1.5,      // mixed numbers, not ranges
    "1 ½"    -> 1.5,
    "1-1/2"  -> 1.5,
    "2¾"     -> 2.75,
    ".5"     -> 0.5,      // leading-dot decimals
    ".25-.75" -> 0.5,
    "1 1/2 to 2" -> 1.75, // ranges with fraction and mixed-number ends
    "1/2 to 1"   -> 0.75,
    "1/2-1"      -> 0.75,
    "½-1"        -> 0.75,
    "1½-2"       -> 1.75,
    "1-1/2 to 2" -> 1.75,
  )
  cases.foreach { case (text, value) =>
    test(s"'$text' parses to $value") {
      val got = QuantityParser.parse(text)
      assert(got.isDefined && math.abs(got.get - value) < 1e-9, s"got $got")
    }
  }

  test("whitespace is tolerated") {
    assert(QuantityParser.parse("  2 1/2  ").contains(2.5))
    assert(QuantityParser.parse("1 / 2").contains(0.5))
  }

  test("garbage yields None, never throws") {
    assert(QuantityParser.parse("").isEmpty)
    assert(QuantityParser.parse("some").isEmpty)
    assert(QuantityParser.parse(null).isEmpty)
    assert(QuantityParser.parse("-").isEmpty)
    Seq(".", "1.", "..5", "1.2.3", "1-", "-½", "½/2", "1/½", "1--1/2", "x½", "1to2", "to 2").foreach { text =>
      assert(QuantityParser.parse(text).isEmpty, text)
    }
  }

  test("zero denominator yields None") {
    assert(QuantityParser.parse("1/0").isEmpty)
  }

  test("multi-token quantity falls back to the leading number") {
    // "500 g or 1 cup" style NER spans can hand over "500 1" — keep 500.
    assert(QuantityParser.parse("500 1").contains(500.0))
  }

  test("property: plain integers always parse to themselves") {
    checkProp(Prop.forAll(Gen.choose(1, 100000)) { n =>
      QuantityParser.parse(n.toString).contains(n.toDouble)
    })
  }

  test("property: any text made of digits, separators and vulgar fractions parses or yields None") {
    val text = Gen.listOf(Gen.oneOf(Gen.oneOf("0123456789 ./-½¼¾⅓⅔⅛x".toSeq).map(_.toString), Gen.const(" to "))).map(_.mkString)
    checkProp(Prop.forAll(text) { s =>
      QuantityParser.parse(s).forall(v => !v.isNaN && v >= 0)
    })
  }

  test("property: ranges parse to the midpoint") {
    // An end as text and value: a whole number, a fraction, or a mixed number.
    val whole = Gen.choose(1, 500).map(n => (n.toString, n.toDouble))
    val fraction = for (n <- Gen.choose(1, 15); d <- Gen.choose(1, 16)) yield (s"$n/$d", n.toDouble / d)
    val mixed = for (w <- Gen.choose(1, 20); (f, v) <- fraction; sep <- Gen.oneOf(" ", "-")) yield (s"$w$sep$f", w + v)
    val end = Gen.oneOf(whole, fraction, mixed)
    checkProp(Prop.forAll(end, end, Gen.oneOf("-", " - ", " to ", "  to  ")) { case ((a, x), (b, y), sep) =>
      // A whole number, a hyphen and a fraction is the mixed number "1-1/2", not a range.
      !(sep == "-" && !a.contains('/') && b.matches("\\d+/\\d+")) ==>
        QuantityParser.parse(s"$a$sep$b").exists(v => math.abs(v - (x + y) / 2) < 1e-9)
    })
  }
}
