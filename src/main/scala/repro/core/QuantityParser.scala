package repro.core

/** Quantity normalization (§II-C): every textual quantity is reduced to one
  * numerical value — '2-4' and '2 to 4' average to 3, '2 1/2', '2½' and
  * '2-1/2' become 2.5, '1/2' and '½' become 0.5, '.5' is 0.5, '500' stays 500.
  * A range's ends may be fractions or mixed numbers: '1/2-1' averages to 0.75.
  * Unparseable input yields None (never throws).
  */
object QuantityParser {

  private val number   = "(\\d+(?:\\.\\d+)?|\\.\\d+)"
  private val fraction = "^(\\d+)\\s*/\\s*(\\d+)$".r
  private val mixed    = "^(\\d+)(?:\\s+|-)(\\d+)\\s*/\\s*(\\d+)$".r
  // A range's end: a mixed number, a fraction or a number.
  private val single   = "(\\d+(?:\\s+|-)\\d+\\s*/\\s*\\d+|\\d+\\s*/\\s*\\d+|\\d+(?:\\.\\d+)?|\\.\\d+)"
  private val range    = s"^$single(?:\\s*-\\s*|\\s+to\\s+)$single$$".r
  private val plain    = s"^$number$$".r

  /** Unicode vulgar fractions, spelled out with a leading space so that
    * '1½' reads as the mixed number '1 1/2'.
    */
  private val vulgar = Map('½' -> " 1/2", '¼' -> " 1/4", '¾' -> " 3/4", '⅓' -> " 1/3", '⅔' -> " 2/3", '⅛' -> " 1/8")

  /** Parse a single quantity token or phrase-level quantity string. */
  def parse(raw: String): Option[Double] = {
    if (raw == null) return None
    raw.flatMap(c => vulgar.getOrElse(c, c.toString)).trim match {
      case ""                 => None
      case mixed(w, n, d)     => safeDiv(n, d).map(_ + w.toDouble)
      case fraction(n, d)     => safeDiv(n, d)
      case range(lo, hi)      => for (a <- parse(lo); b <- parse(hi)) yield (a + b) / 2.0
      case plain(v)           => Some(v.toDouble)
      case multi if multi.split("\\s+").length > 1 =>
        // Multi-token quantity spans from NER that the mixed-number pattern
        // did not recognize ("500 1" from "500 g or 1 cup"): keep the
        // leading number.
        parse(multi.split("\\s+").head)
      case _                  => None
    }
  }

  private def safeDiv(n: String, d: String): Option[Double] = {
    val den = d.toDouble
    if (den == 0) None else Some(n.toDouble / den)
  }
}
