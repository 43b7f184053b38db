package repro

import org.scalacheck.{Gen, Prop}
import org.scalatest.exceptions.TestFailedException
import org.scalatest.funsuite.AnyFunSuite

/** The ScalaCheck bridge itself. */
class PropChecksSpec extends AnyFunSuite with PropChecks {

  test("a failing property's message names its argument") {
    val e = intercept[TestFailedException](checkProp(Prop.forAll(Gen.const(0))(n => n != 0)))
    assert(e.getMessage.contains("Falsified after 0 passed tests"), e.getMessage)
    assert(e.getMessage.contains("ARG_0: 0"), e.getMessage)
  }
}
