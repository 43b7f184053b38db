package repro.nlp

/** Rule-based English noun lemmatizer, standing in for NLTK's WordNet
  * lemmatizer (paper §II-B(b), §II-C).
  *
  * The matching pipeline only needs noun singularization ("Apples"→"apple",
  * "leaves"→"leaf", "tomatoes"→"tomato"); the paper explicitly rejects
  * stemmers for being too aggressive, so the rules below never touch the stem
  * beyond well-known plural inflections and a table of culinary irregulars.
  *
  * All input is lowercased before lemmatization; outputs are lowercase.
  */
object Lemmatizer {

  /** Irregular plurals common in recipe/food text. */
  private val irregular: Map[String, String] = Map(
    "leaves"   -> "leaf",
    "loaves"   -> "loaf",
    "halves"   -> "half",
    "knives"   -> "knife",
    "calves"   -> "calf",
    "shelves"  -> "shelf",
    "feet"     -> "foot",
    "geese"    -> "goose",
    "teeth"    -> "tooth",
    "children" -> "child",
    "men"      -> "man",
    "women"    -> "woman",
    "mice"     -> "mouse",
    "people"   -> "person",
  )

  /** Words that look plural but are not (or whose singular is itself). */
  private val invariant: Set[String] = Set(
    "molasses", "hummus", "couscous", "asparagus", "citrus", "swiss",
    "cress", "watercress", "bass", "grits", "gras", "anise", "chives",
    "series", "species", "lens", "dress", "press", "less",
  )

  /** -oes plurals whose singular ends in -o. */
  private val oesPlurals: Set[String] = Set(
    "tomatoes", "potatoes", "heroes", "echoes", "mangoes", "jalapenos",
  )

  /** Lemmatize a single lowercase token. Idempotent. */
  def lemma(word: String): String = {
    val w = word.toLowerCase
    if (w.length <= 2) w
    else if (invariant.contains(w)) w
    else irregular.getOrElse(w, rulePlural(w))
  }

  private def rulePlural(w: String): String = {
    if (oesPlurals.contains(w)) w.dropRight(2)
    else if (w.endsWith("ies") && w.length > 4) w.dropRight(3) + "y"     // berries→berry
    else if (w.endsWith("sses")) w.dropRight(2)                          // molasses handled above; classes→class
    else if (w.endsWith("shes") || w.endsWith("ches") ||
             w.endsWith("xes")  || w.endsWith("zes")) w.dropRight(2)     // radishes→radish, boxes→box
    else if (w.endsWith("oes") && w.length > 4) w.dropRight(2)           // tomatoes→tomato
    else if (w.endsWith("ss") || w.endsWith("us") || w.endsWith("is")) w // glass, citrus, basis
    else if (w.endsWith("s") && !w.endsWith("'s")) w.dropRight(1)        // apples→apple
    else w
  }
}
