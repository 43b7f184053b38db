package repro

import org.scalacheck.{Prop, Test => SCTest}
import org.scalacheck.util.Pretty
import org.scalatest.Assertions

/** Bridges raw ScalaCheck into ScalaTest suites (the scalatestplus bridge
  * artifact is not available offline): run a Prop and fail the test with
  * ScalaCheck's report, falsifying arguments included, if it does not pass.
  */
trait PropChecks extends Assertions {
  def checkProp(prop: Prop, minTests: Int = 100): Unit = {
    val params = SCTest.Parameters.default.withMinSuccessfulTests(minTests)
    val result = SCTest.check(params, prop)
    assert(result.passed, s"ScalaCheck failed: ${Pretty.pretty(result, Pretty.Params(0))}")
  }
}
