package repro.nlp

import scala.collection.mutable
import scala.util.Random

/** Structured averaged-perceptron training for the ingredient NER model
  * (substitute for Stanford CRF-NER, §II-A).
  *
  * Collins-style updates: decode each training sentence under the current
  * weights with Viterbi; where the predicted sequence differs from gold,
  * promote gold features and demote predicted ones. Weight averaging over all
  * update steps gives the regularization CRF training would otherwise supply.
  * Training runs on the driver (the labeled corpus is ~6.6k phrases); the
  * resulting [[NerModel]] is captured in a UDF closure and applied corpus-wide.
  */
object NerTrainer {

  /** A labeled sentence: tokens and their gold tags (same length). */
  final case class Labeled(tokens: IndexedSeq[String], tags: IndexedSeq[String]) {
    require(tokens.length == tags.length, "token/tag length mismatch")
  }

  /** Token-level scores over non-O tags (exact tag match). */
  final case class Score(precision: Double, recall: Double, f1: Double, perTag: Map[String, Double])

  private val tags   = NerFeatures.Tags
  private val tagIdx = tags.zipWithIndex.toMap
  private val k      = tags.length

  /** Train an averaged perceptron on `data` for `epochs` passes. */
  def train(data: Seq[Labeled], epochs: Int = 8, seed: Long = 42): NerModel = {
    val emitW  = mutable.HashMap.empty[String, Array[Double]]
    val emitA  = mutable.HashMap.empty[String, Array[Double]] // accumulated
    val emitTs = mutable.HashMap.empty[String, Array[Int]]    // last-flush step
    val transW  = Array.ofDim[Double](k + 1, k)
    val transA  = Array.ofDim[Double](k + 1, k)
    val transTs = Array.ofDim[Int](k + 1, k)
    var step = 1

    def bumpEmit(f: String, t: Int, delta: Double): Unit = {
      val w  = emitW.getOrElseUpdate(f, new Array[Double](k))
      val a  = emitA.getOrElseUpdate(f, new Array[Double](k))
      val ts = emitTs.getOrElseUpdate(f, new Array[Int](k))
      a(t) += w(t) * (step - ts(t)); ts(t) = step
      w(t) += delta
    }
    def bumpTrans(p: Int, t: Int, delta: Double): Unit = {
      transA(p)(t) += transW(p)(t) * (step - transTs(p)(t)); transTs(p)(t) = step
      transW(p)(t) += delta
    }

    val rng       = new Random(seed)
    val sents     = data.toIndexedSeq
    val featCache = sents.map(s => Array.tabulate(s.tokens.length)(i => NerFeatures.featuresAt(s.tokens, i)))
    val goldCache = sents.map(_.tags.map(tagIdx).toArray)
    val order     = Array.range(0, sents.length)

    for (_ <- 1 to epochs) {
      // Fisher–Yates with the seeded RNG keeps runs deterministic.
      var i = order.length - 1
      while (i > 0) { val j = rng.nextInt(i + 1); val tmp = order(i); order(i) = order(j); order(j) = tmp; i -= 1 }

      for (n <- order) {
        val feats = featCache(n); val gold = goldCache(n)
        val pred  = Viterbi.decode(NerModel.emissions(feats, emitW), transW)

        if (!java.util.Arrays.equals(pred, gold)) {
          var i = 0
          while (i < gold.length) {
            val g = gold(i); val p = pred(i)
            if (g != p) {
              feats(i).foreach { f => bumpEmit(f, g, 1.0); bumpEmit(f, p, -1.0) }
            }
            val gPrev = if (i == 0) k else gold(i - 1)
            val pPrev = if (i == 0) k else pred(i - 1)
            if (gPrev != pPrev || g != p) { bumpTrans(gPrev, g, 1.0); bumpTrans(pPrev, p, -1.0) }
            i += 1
          }
          step += 1
        }
      }
    }

    // Final flush + average.
    val avgEmit = emitW.iterator.map { case (f, w) =>
      val a = emitA(f); val ts = emitTs(f)
      f -> Array.tabulate(k)(t => (a(t) + w(t) * (step - ts(t)) + w(t)) / step)
    }.toMap
    val avgTrans = Array.tabulate(k + 1, k) { (p, t) =>
      (transA(p)(t) + transW(p)(t) * (step - transTs(p)(t)) + transW(p)(t)) / step
    }
    new NerModel(avgEmit, avgTrans)
  }

  /** Token-level micro precision/recall/F1 over non-O tags, plus per-tag F1. */
  def evaluate(model: NerModel, data: Seq[Labeled]): Score = {
    var tp = 0L; var predPos = 0L; var goldPos = 0L
    val perTagTp   = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
    val perTagPred = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
    val perTagGold = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
    for (sent <- data) {
      val pred = model.tag(sent.tokens)
      for ((g, p) <- sent.tags.zip(pred)) {
        if (p != "O") { predPos += 1; perTagPred(p) += 1 }
        if (g != "O") { goldPos += 1; perTagGold(g) += 1 }
        if (g != "O" && g == p) { tp += 1; perTagTp(g) += 1 }
      }
    }
    val prec = if (predPos == 0) 0.0 else tp.toDouble / predPos
    val rec  = if (goldPos == 0) 0.0 else tp.toDouble / goldPos
    val f1   = if (prec + rec == 0) 0.0 else 2 * prec * rec / (prec + rec)
    val perTag = tags.filter(_ != "O").map { t =>
      val p = if (perTagPred(t) == 0) 0.0 else perTagTp(t).toDouble / perTagPred(t)
      val r = if (perTagGold(t) == 0) 0.0 else perTagTp(t).toDouble / perTagGold(t)
      t -> (if (p + r == 0) 0.0 else 2 * p * r / (p + r))
    }.toMap
    Score(prec, rec, f1, perTag)
  }

  /** K-fold cross-validation (paper: 5-fold, F1 = 0.95). Returns fold F1s. */
  def crossValidate(data: Seq[Labeled], folds: Int = 5, epochs: Int = 8, seed: Long = 42): Seq[Double] = {
    val rng   = new Random(seed)
    val perm  = rng.shuffle(data.toVector)
    (0 until folds).map { f =>
      val test  = perm.zipWithIndex.collect { case (s, i) if i % folds == f => s }
      val train = perm.zipWithIndex.collect { case (s, i) if i % folds != f => s }
      evaluate(NerTrainer.train(train, epochs, seed + f), test).f1
    }
  }
}
