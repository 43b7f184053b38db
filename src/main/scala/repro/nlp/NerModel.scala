package repro.nlp

/** A trained sequence-tagging model: emission weights per (feature, tag) and
  * transition weights per (prevTag, tag). Immutable and serializable so it
  * can be captured in a Spark UDF's closure and applied corpus-wide.
  *
  * @param emitW  feature -> per-tag weight array (aligned with NerFeatures.Tags)
  * @param transW (k+1) x k matrix; row k is the start-transition
  */
final class NerModel(
    val emitW: Map[String, Array[Double]],
    val transW: Array[Array[Double]],
) extends Serializable {

  /** Tag a tokenized phrase. */
  def tag(tokens: IndexedSeq[String]): Vector[String] = {
    if (tokens.isEmpty) return Vector.empty
    val feats = Array.tabulate(tokens.length)(i => NerFeatures.featuresAt(tokens, i))
    Viterbi.decode(NerModel.emissions(feats, emitW), transW).iterator.map(NerFeatures.Tags).toVector
  }
}

object NerModel {

  /** One emission row per token: the per-tag weights of the token's features,
    * summed in feature order. Features without weights add nothing.
    */
  def emissions(feats: Array[Array[String]], weights: collection.Map[String, Array[Double]]): Array[Array[Double]] =
    feats.map { fs =>
      val row = new Array[Double](NerFeatures.Tags.length)
      var j   = 0
      while (j < fs.length) {
        val w = weights.getOrElse(fs(j), null)
        if (w != null) { var t = 0; while (t < row.length) { row(t) += w(t); t += 1 } }
        j += 1
      }
      row
    }
}
