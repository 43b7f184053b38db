package repro.nlp

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropChecks

/** Exact decoding for the sequence tagger. */
class ViterbiSpec extends AnyFunSuite with PropChecks {

  /** A (k+1) x k transition matrix for two tags; row 2 is the start row. */
  private def trans2(f: (Int, Int) => Double): Array[Array[Double]] = Array.tabulate(3, 2)(f)

  test("single position picks the best emission (with start transition)") {
    val path = Viterbi.decode(Array(Array(1.0, 5.0)), trans2((_, _) => 0.0))
    assert(path.toSeq == Seq(1))
  }

  test("start transition can override emissions") {
    val path = Viterbi.decode(Array(Array(0.0, 1.0)), trans2((p, t) => if (p == 2 && t == 0) 10.0 else 0.0))
    assert(path.toSeq == Seq(0))
  }

  test("transitions propagate: sticky tags win over greedy emissions") {
    // Emissions prefer alternating; a huge self-transition forces a constant path.
    val em   = Array.tabulate(4, 2)((i, t) => if ((i % 2) == t) 1.0 else 0.0)
    val path = Viterbi.decode(em, trans2((p, t) => if (p == t) 100.0 else 0.0))
    assert(path.distinct.length == 1)
  }

  test("zero scores give the first tag everywhere (deterministic tie-break)") {
    val path = Viterbi.decode(Array.ofDim[Double](3, 2), trans2((_, _) => 0.0))
    assert(path.toSeq == Seq(0, 0, 0))
  }

  test("decode rejects empty input") {
    intercept[IllegalArgumentException] { Viterbi.decode(Array.empty[Array[Double]], trans2((_, _) => 0.0)) }
  }

  /** Brute-force all k^n paths for cross-checking; row k of `tr` scores the first tag. */
  private def bruteForce(em: Array[Array[Double]], tr: Array[Array[Double]]): Double = {
    val n = em.length; val k = tr(0).length
    def paths(i: Int): Seq[List[Int]] =
      if (i == n) Seq(Nil) else for { t <- 0 until k; rest <- paths(i + 1) } yield t :: rest
    paths(0).map(score(em, tr, _)).max
  }

  private def score(em: Array[Array[Double]], tr: Array[Array[Double]], path: Seq[Int]): Double = {
    val k = tr(0).length
    path.indices.map(i => em(i)(path(i)) + tr(if (i == 0) k else path(i - 1))(path(i))).sum
  }

  test("property: Viterbi path score equals brute-force optimum") {
    val k = 3
    val gen = for {
      n     <- Gen.choose(1, 5)
      seed  <- Gen.choose(0L, 100000L)
    } yield (n, seed)
    checkProp(Prop.forAll(gen) { case (n, seed) =>
      val rng  = new scala.util.Random(seed)
      val em   = Array.fill(n, k)(rng.nextDouble() * 10 - 5)
      val tr   = Array.fill(k + 1, k)(rng.nextDouble() * 10 - 5)
      val path = Viterbi.decode(em, tr)
      path.length == n && math.abs(score(em, tr, path.toIndexedSeq) - bruteForce(em, tr)) < 1e-9
    }, minTests = 50)
  }
}
