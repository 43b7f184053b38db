package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.nlp.NerModel

/** Ingredient Data Mining (§II-A) as a Spark stage: apply the trained NER
  * model to every ingredient phrase and post-process the tag sequence into
  * the structured row of paper Table I (Name, State, Quantity, Unit,
  * Temperature, Dry/Fresh, Size).
  *
  * The model is captured in a UDF closure (it is small and serializable), so
  * tagging scales out with the corpus while training stayed on the driver.
  */
object NerPipeline {

  /** The structured extraction of one ingredient phrase. */
  final case class Extracted(name: String, state: String, quantity: String,
                             unit: String, temp: String, df: String, size: String)

  /** Whitespace/punctuation tokenizer used for both training and inference:
    * commas become their own tokens ("onion," → "onion", ",").
    */
  def tokenize(phrase: String): IndexedSeq[String] =
    phrase.replaceAll(",", " , ").split("\\s+").filter(_.nonEmpty).toIndexedSeq

  /** Turn a tagged token sequence into the Table I columns.
    *
    * "or"-alternatives ("3/4 cup butter or 3/4 cup margarine") keep only the
    * first alternative: the sequence is truncated at the first "or" followed
    * by a QUANTITY-tagged token.
    */
  def extract(tokens: IndexedSeq[String], tags: IndexedSeq[String]): Extracted = {
    require(tokens.length == tags.length, "token/tag length mismatch")
    val cut = tokens.indices.find { i =>
      tokens(i).equalsIgnoreCase("or") && i + 1 < tokens.length && tags(i + 1) == "QUANTITY"
    }.getOrElse(tokens.length)
    val ts = tokens.take(cut).zip(tags.take(cut))

    def all(tag: String): String   = ts.collect { case (t, g) if g == tag => t }.mkString(" ")
    def firstOf(tag: String): String = ts.collectFirst { case (t, g) if g == tag => t }.getOrElse("")

    // Quantity: the first maximal run of QUANTITY tokens ("2 1/2" → "2 1/2").
    val qStart = ts.indexWhere(_._2 == "QUANTITY")
    val quantity =
      if (qStart < 0) ""
      else ts.drop(qStart).takeWhile(_._2 == "QUANTITY").map(_._1).mkString(" ")

    // §II-C: when NER misses the unit, search the phrase for a known unit
    // word among tokens not already consumed by NAME/QUANTITY.
    val nerUnit = firstOf("UNIT")
    val unit =
      if (nerUnit.nonEmpty) nerUnit
      else ts.collectFirst {
        case (t, g) if g != "NAME" && g != "QUANTITY" && g != "SIZE" &&
          UnitTables.aliases.contains(t.toLowerCase.filter(_.isLetter)) &&
          UnitTables.standardize(t) != "size" => t
      }.getOrElse("")

    Extracted(all("NAME"), all("STATE"), quantity, unit,
              firstOf("TEMP"), firstOf("DF"), firstOf("SIZE"))
  }

  /** Tag + extract a raw phrase with the model; null gives the empty extraction. */
  def extractPhrase(model: NerModel, phrase: String): Extracted = {
    val tokens = if (phrase == null) IndexedSeq.empty else tokenize(phrase)
    if (tokens.isEmpty) Extracted("", "", "", "", "", "", "")
    else extract(tokens, model.tag(tokens))
  }

  /** Add structured columns (name, state, quantity, unit, temp, df, size)
    * to a DataFrame containing a `phrase` column.
    */
  def annotate(model: NerModel, phrases: DataFrame): DataFrame = {
    val extractUdf = udf { (phrase: String) => extractPhrase(model, phrase) }.withName("extract")
    phrases
      .withColumn("ext", extractUdf(col("phrase")))
      .select(col("*"), col("ext.*"))
      .drop("ext")
  }
}
