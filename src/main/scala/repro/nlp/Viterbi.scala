package repro.nlp

/** Exact first-order Viterbi decoding over a fixed tag set.
  *
  * Scores are additive: em(i)(tag) + trans(prevTag)(tag), where row k of
  * `trans` scores the first tag. Training and inference both decode the
  * emission rows of [[NerModel.emissions]] under the model's transitions.
  */
object Viterbi {

  /** Tag indices of the highest-scoring path; ties go to the lowest index.
    *
    * @param em    n x k emission scores, one row per position (n > 0)
    * @param trans (k+1) x k transition scores; row k is the start row
    */
  def decode(em: Array[Array[Double]], trans: Array[Array[Double]]): Array[Int] = {
    val n     = em.length
    require(n > 0, "empty sentence")
    val k     = trans(0).length
    val delta = Array.ofDim[Double](n, k)
    val back  = Array.ofDim[Int](n, k)

    var t = 0
    while (t < k) {
      delta(0)(t) = em(0)(t) + trans(k)(t)
      t += 1
    }
    var i = 1
    while (i < n) {
      var cur = 0
      while (cur < k) {
        var bestScore = Double.NegativeInfinity
        var bestPrev  = 0
        var prev      = 0
        while (prev < k) {
          val s = delta(i - 1)(prev) + trans(prev)(cur)
          if (s > bestScore) { bestScore = s; bestPrev = prev }
          prev += 1
        }
        delta(i)(cur) = bestScore + em(i)(cur)
        back(i)(cur)  = bestPrev
        cur += 1
      }
      i += 1
    }

    var bestLast = 0
    var bestLastScore = Double.NegativeInfinity
    t = 0
    while (t < k) {
      if (delta(n - 1)(t) > bestLastScore) { bestLastScore = delta(n - 1)(t); bestLast = t }
      t += 1
    }
    val path = new Array[Int](n)
    path(n - 1) = bestLast
    i = n - 1
    while (i > 0) { path(i - 1) = back(i)(path(i)); i -= 1 }
    path
  }
}
