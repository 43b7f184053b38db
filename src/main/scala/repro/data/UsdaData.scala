package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic USDA-SR Standard Reference database (substrate).
  *
  * The paper matches RecipeDB ingredients against USDA-SR's food
  * descriptions, per-100g nutrient table and per-food gram-weight table. We
  * rebuild the same structure from two parts:
  *
  *  - a **curated seed** of real USDA-SR rows — every description appearing
  *    in the paper's Tables II, III and IV plus the foods needed by the
  *    Table I worked example, with realistic kcal/macros and gram weights
  *    (Table IV's Butter,salted rows are reproduced verbatim, including the
  *    noisy unit string 'pat (1" sq, 1/3" high)');
  *  - a **deterministic combinatorial expansion** (base food × preparation
  *    form × detail qualifier) that recreates USDA-SR's collision density —
  *    many near-identical descriptions per head noun — at 1,050 foods
  *    (real SR: ~8.8k; scale substitution documented in DESIGN.md).
  *
  * Every food also carries *ingredient aliases*: the noisy names recipe
  * authors use for it ("unsalted butter" for "Butter, without salt"). The
  * recipe generator consumes aliases to build phrases whose ground-truth
  * mapping is known, which substitutes for the paper's manual validation of
  * 5000 matches.
  */
object UsdaData {

  /** One food of the reference database (per-100g nutrients). */
  final case class UsdaFood(ndbId: Long, description: String,
                            kcal100g: Double, protein100g: Double,
                            fat100g: Double, carb100g: Double)

  /** One gram-weight row: `amount` of raw `unit` weighs `grams` grams. */
  final case class UsdaWeight(ndbId: Long, seq: Int, amount: Double,
                              unit: String, grams: Double)

  /** A recipe-text alias for a food: NAME (+ optional STATE/TEMP/DF words). */
  final case class Alias(ndbId: Long, name: String, state: String = "",
                         temp: String = "", df: String = "")

  // ---------------------------------------------------------------------
  // Curated seed — ndbIds 1..50 follow the paper's Table II ordering first.
  // ---------------------------------------------------------------------

  val curatedFoods: Seq[UsdaFood] = Seq(
    UsdaFood(1,  "Butter, salted", 717, 0.85, 81.1, 0.06),
    UsdaFood(2,  "Butter, whipped, with salt", 717, 0.49, 78.3, 2.87),
    UsdaFood(3,  "Butter, without salt", 717, 0.85, 81.1, 0.06),
    UsdaFood(4,  "Cheese, blue", 353, 21.4, 28.7, 2.34),
    UsdaFood(5,  "Cheese, cottage, creamed, large or small curd", 98, 11.1, 4.3, 3.38),
    UsdaFood(6,  "Cheese, mozzarella, whole milk", 300, 22.2, 22.4, 2.19),
    UsdaFood(7,  "Milk, reduced fat, fluid, 2% milkfat, with added vitamin A and vitamin D", 50, 3.3, 1.98, 4.8),
    UsdaFood(8,  "Milk, reduced fat, fluid, 2% milkfat, with added nonfat milk solids and vitamin A and vitamin D", 51, 3.48, 1.92, 4.97),
    UsdaFood(9,  "Milk, reduced fat, fluid, 2% milkfat, protein fortified, with added vitamin A and vitamin D", 56, 3.93, 1.98, 5.49),
    UsdaFood(10, "Milk, indian buffalo, fluid", 97, 3.75, 6.89, 5.18),
    UsdaFood(11, "Milk shakes, thick chocolate", 119, 3.05, 2.7, 21.2),
    UsdaFood(12, "Milk shakes, thick vanilla", 112, 3.86, 3.03, 17.8),
    UsdaFood(13, "Yogurt, plain, whole milk, 8 grams protein per 8 ounce", 61, 3.47, 3.25, 4.66),
    UsdaFood(14, "Yogurt, vanilla, low fat, 11 grams protein per 8 ounce", 85, 4.93, 1.25, 13.8),
    UsdaFood(15, "Egg, whole, raw, fresh", 143, 12.6, 9.51, 0.72),
    UsdaFood(16, "Egg, white, raw, fresh", 52, 10.9, 0.17, 0.73),
    UsdaFood(17, "Egg, yolk, raw, fresh", 322, 15.9, 26.5, 3.59),
    UsdaFood(18, "Apples, raw, with skin", 52, 0.26, 0.17, 13.8),
    UsdaFood(19, "Apples, raw, without skin", 48, 0.27, 0.13, 12.8),
    UsdaFood(20, "Babyfood, apples, dices, toddler", 53, 0.17, 0.18, 12.9),
    UsdaFood(21, "Lentils, pink or red, raw", 358, 23.8, 2.17, 63.1),
    UsdaFood(22, "Cherries, sour, red, raw", 50, 1.0, 0.3, 12.2),
    UsdaFood(23, "Soup, tomato beef with noodle, canned, condensed", 56, 3.55, 1.71, 6.73),
    UsdaFood(24, "Soup, tomato, canned, condensed", 62, 1.63, 0.49, 13.6),
    UsdaFood(25, "Coriander (cilantro) leaves, raw", 23, 2.13, 0.52, 3.67),
    UsdaFood(26, "Spices, coriander leaf, dried", 279, 21.9, 4.78, 52.1),
    UsdaFood(27, "Tomato products, canned, paste, without salt added", 82, 4.32, 0.47, 18.9),
    UsdaFood(28, "Soup, vegetable with beef broth, canned, condensed", 66, 2.42, 1.53, 10.6),
    UsdaFood(29, "Soup, vegetable broth, ready to serve", 5, 0.26, 0.11, 0.91),
    UsdaFood(30, "Broadbeans (fava beans), mature seeds, raw", 341, 26.1, 1.53, 58.3),
    UsdaFood(31, "Beans, fava, in pod, raw", 72, 5.6, 0.6, 11.7),
    UsdaFood(32, "Spices, pepper, red or cayenne", 318, 12.0, 17.3, 56.6),
    UsdaFood(33, "Spices, pepper, black", 251, 10.4, 3.26, 63.9),
    UsdaFood(34, "Chicken, broilers or fryers, meat and skin and giblets and neck, raw", 213, 17.9, 15.2, 0.07),
    UsdaFood(35, "Fast foods, quesadilla, with chicken", 234, 12.2, 11.7, 20.2),
    UsdaFood(36, "Salad dressing, sesame seed dressing, regular", 443, 3.1, 45.2, 8.6),
    UsdaFood(37, "Seeds, sesame seeds, whole, dried", 573, 17.7, 49.7, 23.4),
    UsdaFood(38, "Beef, ground, 85% lean meat / 15% fat, raw", 215, 18.6, 15.0, 0.0),
    UsdaFood(39, "Onions, raw", 40, 1.1, 0.1, 9.34),
    UsdaFood(40, "Dill weed, fresh", 43, 3.46, 1.12, 7.02),
    UsdaFood(41, "Salt, table", 0, 0, 0, 0),
    UsdaFood(42, "Wheat flour, white, all-purpose, enriched, bleached", 364, 10.3, 0.98, 76.3),
    UsdaFood(43, "Cream, sour, cultured", 198, 2.44, 19.4, 4.63),
    UsdaFood(44, "Water, tap, municipal", 0, 0, 0, 0),
    UsdaFood(45, "Margarine, regular, 80% fat, composite, with salt", 717, 0.16, 80.7, 0.7),
    UsdaFood(46, "Milk, whole, 3.25% milkfat, with added vitamin D", 61, 3.15, 3.25, 4.8),
    UsdaFood(47, "Milk, nonfat, fluid, with added vitamin A and vitamin D (fat free or skim)", 34, 3.37, 0.08, 4.96),
    UsdaFood(48, "Garlic, raw", 149, 6.36, 0.5, 33.1),
    UsdaFood(49, "Sugars, granulated", 387, 0, 0, 100),
    UsdaFood(50, "Oil, olive, salad or cooking", 884, 0, 100, 0),
  )

  /** Curated gram weights; Butter,salted (ndb 1) reproduces Table IV. */
  val curatedWeights: Seq[UsdaWeight] = Seq(
    UsdaWeight(1, 1, 1.0, "pat (1\" sq, 1/3\" high)", 5.0),
    UsdaWeight(1, 2, 1.0, "tbsp", 14.2),
    UsdaWeight(1, 3, 1.0, "cup", 227.0),
    UsdaWeight(1, 4, 1.0, "stick", 113.0),
    UsdaWeight(2, 1, 1.0, "tbsp", 9.4),
    UsdaWeight(2, 2, 1.0, "cup", 151.0),
    UsdaWeight(3, 1, 1.0, "pat (1\" sq, 1/3\" high)", 5.0),
    UsdaWeight(3, 2, 1.0, "tbsp", 14.2),
    UsdaWeight(3, 3, 1.0, "cup", 227.0),
    UsdaWeight(3, 4, 1.0, "stick", 113.0),
    UsdaWeight(4, 1, 1.0, "cup, crumbled", 135.0),
    UsdaWeight(5, 1, 1.0, "cup (not packed)", 210.0),
    UsdaWeight(6, 1, 1.0, "cup, shredded", 112.0),
    UsdaWeight(6, 2, 1.0, "slice (1 oz)", 28.0),
  ) ++ Seq(7L, 8L, 9L, 10L, 46L, 47L).flatMap { id =>
    Seq(
      UsdaWeight(id, 1, 1.0, "cup", 244.0),
      UsdaWeight(id, 2, 1.0, "tbsp", 15.3),
      UsdaWeight(id, 3, 1.0, "quart", 976.0),
    )
  } ++ Seq(
    UsdaWeight(11, 1, 1.0, "fl oz", 28.4),
    UsdaWeight(12, 1, 1.0, "fl oz", 28.4),
    UsdaWeight(13, 1, 1.0, "cup (8 fl oz)", 245.0),
    UsdaWeight(14, 1, 1.0, "cup (8 fl oz)", 245.0),
    UsdaWeight(15, 1, 1.0, "large", 50.0),
    UsdaWeight(15, 2, 1.0, "medium", 44.0),
    UsdaWeight(15, 3, 1.0, "small", 38.0),
    UsdaWeight(15, 4, 1.0, "cup (4.86 large eggs)", 243.0),
    UsdaWeight(16, 1, 1.0, "large", 33.0),
    UsdaWeight(16, 2, 1.0, "cup", 243.0),
    UsdaWeight(17, 1, 1.0, "large", 17.0),
    UsdaWeight(17, 2, 1.0, "cup", 243.0),
    UsdaWeight(18, 1, 1.0, "cup, quartered or chopped", 125.0),
    UsdaWeight(18, 2, 1.0, "small (2-1/2\" dia)", 149.0),
    UsdaWeight(18, 3, 1.0, "medium (3\" dia)", 182.0),
    UsdaWeight(18, 4, 1.0, "large (3-1/4\" dia)", 223.0),
    UsdaWeight(19, 1, 1.0, "cup slices", 110.0),
    UsdaWeight(19, 2, 1.0, "medium (3\" dia)", 161.0),
    UsdaWeight(20, 1, 1.0, "tbsp", 15.6),
    UsdaWeight(21, 1, 1.0, "cup", 192.0),
    UsdaWeight(21, 2, 1.0, "tbsp", 12.0),
    UsdaWeight(22, 1, 1.0, "cup, without pits", 155.0),
    UsdaWeight(23, 1, 1.0, "cup (8 fl oz)", 244.0),
    UsdaWeight(23, 2, 1.0, "can (10.75 oz)", 305.0),
    UsdaWeight(24, 1, 1.0, "cup (8 fl oz)", 244.0),
    UsdaWeight(24, 2, 1.0, "can (10.75 oz)", 305.0),
    UsdaWeight(25, 1, 1.0, "cup", 16.0),
    UsdaWeight(25, 2, 1.0, "sprig", 0.2),
    UsdaWeight(26, 1, 1.0, "tbsp", 1.8),
    UsdaWeight(26, 2, 1.0, "tsp", 0.6),
    UsdaWeight(27, 1, 1.0, "cup", 262.0),
    UsdaWeight(27, 2, 1.0, "tbsp", 16.0),
    UsdaWeight(27, 3, 1.0, "can (6 oz)", 170.0),
    UsdaWeight(28, 1, 1.0, "cup (8 fl oz)", 244.0),
    UsdaWeight(28, 2, 1.0, "can (10.5 oz)", 298.0),
    UsdaWeight(29, 1, 1.0, "cup", 235.0),
    UsdaWeight(29, 2, 1.0, "can (14.5 oz)", 411.0),
    UsdaWeight(30, 1, 1.0, "cup", 150.0),
    UsdaWeight(31, 1, 1.0, "cup", 126.0),
    UsdaWeight(32, 1, 1.0, "tsp", 1.8),
    UsdaWeight(32, 2, 1.0, "tbsp", 5.3),
    UsdaWeight(33, 1, 1.0, "tsp", 2.3),
    UsdaWeight(33, 2, 1.0, "tbsp", 6.9),
    UsdaWeight(33, 3, 1.0, "dash", 0.1),
    UsdaWeight(34, 1, 1.0, "whole chicken", 1046.0),
    UsdaWeight(34, 2, 1.0, "piece", 85.0),
    UsdaWeight(34, 3, 1.0, "cup, chopped or diced", 140.0),
    UsdaWeight(35, 1, 1.0, "piece", 180.0),
    UsdaWeight(36, 1, 1.0, "tbsp", 15.0),
    UsdaWeight(36, 2, 1.0, "cup", 240.0),
    UsdaWeight(37, 1, 1.0, "tbsp", 9.0),
    UsdaWeight(37, 2, 1.0, "cup", 144.0),
    UsdaWeight(37, 3, 1.0, "tsp", 3.0),
    UsdaWeight(38, 1, 1.0, "patty (4 oz raw)", 113.0),
    UsdaWeight(38, 2, 1.0, "cup", 135.0),
    UsdaWeight(39, 1, 1.0, "small", 70.0),
    UsdaWeight(39, 2, 1.0, "medium (2-1/2\" dia)", 110.0),
    UsdaWeight(39, 3, 1.0, "large", 150.0),
    UsdaWeight(39, 4, 1.0, "cup, chopped", 160.0),
    UsdaWeight(39, 5, 1.0, "tbsp chopped", 10.0),
    UsdaWeight(39, 6, 1.0, "slice", 14.0),
    UsdaWeight(40, 1, 1.0, "cup sprigs", 8.9),
    UsdaWeight(40, 2, 1.0, "sprig", 1.0),
    UsdaWeight(41, 1, 1.0, "tsp", 6.0),
    UsdaWeight(41, 2, 1.0, "tbsp", 18.0),
    UsdaWeight(41, 3, 1.0, "dash", 0.4),
    UsdaWeight(41, 4, 1.0, "cup", 292.0),
    UsdaWeight(42, 1, 1.0, "cup", 125.0),
    UsdaWeight(42, 2, 1.0, "tbsp", 7.8),
    UsdaWeight(43, 1, 1.0, "cup", 230.0),
    UsdaWeight(43, 2, 1.0, "tbsp", 12.0),
    UsdaWeight(44, 1, 1.0, "cup (8 fl oz)", 237.0),
    UsdaWeight(44, 2, 1.0, "fl oz", 29.6),
    UsdaWeight(45, 1, 1.0, "tbsp", 14.2),
    UsdaWeight(45, 2, 1.0, "cup", 227.0),
    UsdaWeight(45, 3, 1.0, "stick", 113.0),
    UsdaWeight(48, 1, 1.0, "clove", 3.0),
    UsdaWeight(48, 2, 1.0, "tsp", 2.8),
    UsdaWeight(48, 3, 1.0, "cup", 136.0),
    UsdaWeight(49, 1, 1.0, "tsp", 4.2),
    UsdaWeight(49, 2, 1.0, "tbsp", 12.6),
    UsdaWeight(49, 3, 1.0, "cup", 200.0),
    UsdaWeight(50, 1, 1.0, "tbsp", 13.5),
    UsdaWeight(50, 2, 1.0, "tsp", 4.5),
    UsdaWeight(50, 3, 1.0, "cup", 216.0),
  )

  /** Recipe-text aliases for curated foods; the synthetic RecipeDB draws
    * ingredient names from these. Some aliases are deliberately ambiguous
    * ("milk" for both 2%-milk and whole-milk) so that matching accuracy is
    * below 100%, as in the paper's manual validation (71.6%).
    */
  val curatedAliases: Seq[Alias] = Seq(
    Alias(1,  "butter", state = "softened"),
    Alias(1,  "salted butter"),
    Alias(1,  "butter"),
    Alias(3,  "unsalted butter"),
    Alias(4,  "blue cheese", state = "crumbled"),
    Alias(5,  "cottage cheese"),
    Alias(6,  "mozzarella cheese", state = "shredded"),
    Alias(7,  "milk"),
    Alias(46, "milk"),                       // ambiguous on purpose
    Alias(46, "whole milk"),
    Alias(47, "skim milk"),
    Alias(47, "nonfat milk"),
    Alias(11, "chocolate milk shake"),
    Alias(13, "plain yogurt"),
    Alias(13, "yogurt"),
    Alias(14, "vanilla yogurt"),
    Alias(15, "egg"),
    Alias(15, "egg", state = "hard-cooked chopped"),
    Alias(16, "egg white"),
    Alias(17, "egg yolk"),
    Alias(18, "apple"),
    Alias(21, "red lentil"),
    Alias(21, "lentil"),
    Alias(24, "tomato soup"),
    Alias(25, "cilantro", state = "chopped"),
    Alias(25, "coriander leaves", df = "fresh"),
    Alias(26, "coriander", state = "ground"), // paper Table III row
    Alias(27, "tomato paste"),
    Alias(29, "vegetable broth"),
    Alias(30, "fava beans"),
    Alias(32, "cayenne pepper", state = "ground"),
    Alias(33, "black pepper", state = "minced"),
    Alias(33, "black pepper"),
    Alias(34, "chicken with giblets"),
    Alias(37, "sesame seeds"),
    Alias(38, "beef", state = "lean ground"),
    Alias(39, "onion", state = "chopped"),
    Alias(39, "onion"),
    Alias(40, "dill weed", df = "fresh"),
    Alias(41, "salt"),
    Alias(42, "all-purpose flour"),
    Alias(43, "cream", state = "sour low-fat"),
    Alias(43, "sour cream"),
    Alias(44, "water", temp = "cold"),
    Alias(44, "water"),
    Alias(45, "margarine", state = "softened"),
    Alias(48, "garlic", state = "minced"),
    Alias(49, "sugar"),
    Alias(50, "olive oil"),
  )

  // ---------------------------------------------------------------------
  // Deterministic combinatorial expansion.
  // ---------------------------------------------------------------------

  /** @param units (rawUnitString, baseGrams); grams are jittered per food. */
  private final case class Category(
      name: String, bases: Seq[String], forms: Seq[(String, Double)],
      details: Seq[String], kcalLo: Double, kcalHi: Double,
      units: Seq[(String, Double)], aliasDf: Map[String, String])

  private val categories: Seq[Category] = Seq(
    Category("vegetable",
      Seq("carrot", "broccoli", "spinach", "celery", "cabbage", "cauliflower",
          "zucchini", "eggplant", "cucumber", "lettuce", "kale", "leek",
          "turnip", "radish", "beet", "pumpkin", "squash", "asparagus",
          "artichoke", "okra", "parsnip", "shallot", "scallion", "fennel",
          "mushroom", "pepper, sweet, green", "pepper, sweet, red", "corn, sweet, yellow"),
      Seq("raw" -> 1.0, "cooked, boiled, drained" -> 1.1, "frozen, chopped" -> 1.0,
          "canned, drained solids" -> 0.9),
      Seq("", "with salt", "without salt"),
      15, 90,
      Seq("cup, chopped" -> 120.0, "small" -> 60.0, "medium" -> 110.0, "large" -> 160.0),
      Map.empty),
    Category("fruit",
      Seq("banana", "orange", "peach", "pear", "plum", "grape", "strawberry",
          "blueberry", "raspberry", "blackberry", "mango", "pineapple",
          "papaya", "kiwi", "melon", "watermelon", "apricot", "nectarine",
          "fig", "cranberry", "grapefruit", "lime", "lemon", "pomegranate"),
      Seq("raw" -> 1.0, "canned, in syrup" -> 1.4, "dried" -> 3.2,
          "frozen, sweetened" -> 1.3),
      Seq("", "with skin", "without skin"),
      30, 95,
      Seq("cup" -> 150.0, "small" -> 90.0, "medium" -> 130.0, "large" -> 180.0),
      Map("dried" -> "dried")),
    Category("meat",
      Seq("pork", "lamb", "turkey", "duck", "veal", "venison", "ham",
          "bacon", "sausage"),
      Seq("raw" -> 1.0, "cooked, roasted" -> 1.15),
      Seq(""),
      140, 330,
      Seq("piece" -> 85.0, "slice" -> 28.0),
      Map.empty),
    Category("fish",
      Seq("salmon", "tuna", "cod", "trout", "halibut", "haddock", "mackerel",
          "sardine", "tilapia", "catfish", "shrimp", "crab", "lobster",
          "scallop", "oyster", "clam", "mussel"),
      Seq("raw" -> 1.0, "cooked, dry heat" -> 1.2),
      Seq("", "wild", "farmed"),
      70, 210,
      Seq("piece" -> 85.0, "cup" -> 140.0),
      Map.empty),
    Category("grain",
      Seq("rice, white, long-grain", "rice, brown, long-grain", "barley",
          "oats", "quinoa", "millet", "bulgur", "cornmeal", "semolina",
          "buckwheat", "rye flour", "spelt"),
      Seq("raw" -> 1.0, "cooked" -> 0.35),
      Seq("", "unenriched", "enriched"),
      330, 390,
      Seq("cup" -> 180.0, "tbsp" -> 12.0),
      Map.empty),
    Category("legume",
      Seq("beans, kidney", "beans, pinto", "beans, black", "beans, navy",
          "beans, lima", "chickpeas", "soybeans", "peas, split",
          "peas, green"),
      Seq("mature seeds, raw" -> 1.0, "mature seeds, cooked, boiled" -> 0.38),
      Seq("", "with salt", "without salt"),
      300, 380,
      Seq("cup" -> 180.0, "tbsp" -> 12.0),
      Map.empty),
    Category("nut",
      Seq("almonds", "walnuts", "pecans", "cashews", "pistachios",
          "hazelnuts", "macadamias", "peanuts"),
      Seq("raw" -> 1.0, "dry roasted" -> 1.02, "oil roasted" -> 1.05),
      Seq("", "with salt added", "without salt added"),
      550, 720,
      Seq("cup" -> 130.0, "tbsp" -> 9.0),
      Map.empty),
    Category("herb",
      Seq("basil", "oregano", "thyme", "rosemary", "sage", "parsley", "mint",
          "tarragon", "paprika", "cumin", "turmeric", "ginger", "cinnamon",
          "nutmeg", "cardamom", "saffron", "allspice", "marjoram", "bay leaf",
          "chili powder"),
      Seq("fresh" -> 0.12, "dried" -> 1.0),
      Seq(""),
      230, 340,
      Seq("tsp" -> 1.8, "tbsp" -> 5.4),
      Map("fresh" -> "fresh", "dried" -> "dried")),
    Category("pasta",
      Seq("macaroni", "spaghetti", "noodles, egg", "bread, white",
          "bread, whole-wheat", "tortilla", "bagel", "muffin, english",
          "crackers, saltine"),
      Seq("enriched" -> 1.0, "cooked" -> 0.42),
      Seq(""),
      230, 390,
      Seq("cup" -> 120.0, "piece" -> 45.0, "slice" -> 28.0),
      Map.empty),
  )

  /** Deterministic "random" in [0,1) from a string key — no RNG state. */
  private[data] def hash01(key: String): Double =
    (math.abs(scala.util.hashing.MurmurHash3.stringHash(key)) % 100000) / 100000.0

  private def capitalize(s: String): String =
    if (s.isEmpty) s else s.head.toUpper +: s.tail

  /** Expanded foods, weights and aliases, generated once, deterministically. */
  lazy val (expandedFoods, expandedWeights, expandedAliases):
      (Seq[UsdaFood], Seq[UsdaWeight], Seq[Alias]) = {
    val foods   = Seq.newBuilder[UsdaFood]
    val weights = Seq.newBuilder[UsdaWeight]
    val aliases = Seq.newBuilder[Alias]
    var id      = 1000L
    for {
      cat           <- categories
      base          <- cat.bases
      (form, mult)  <- cat.forms
      detail        <- cat.details
    } {
      id += 1
      val desc = capitalize(base) + ", " + form + (if (detail.isEmpty) "" else s", $detail")
      val kcal = (cat.kcalLo + hash01(base) * (cat.kcalHi - cat.kcalLo)) * mult
      // Macros: plausible split by category; consistency with kcal not enforced.
      val protein = kcal * (0.05 + 0.25 * hash01(base + "p")) / 4
      val fat     = kcal * (0.05 + 0.30 * hash01(base + "f")) / 9
      val carb    = math.max(0, (kcal - protein * 4 - fat * 9)) / 4
      foods += UsdaFood(id, desc, round1(kcal), round1(protein), round1(fat), round1(carb))
      cat.units.zipWithIndex.foreach { case ((unit, baseG), i) =>
        val g = baseG * (0.8 + 0.4 * hash01(base + unit))
        weights += UsdaWeight(id, i + 1, 1.0, unit, round1(g))
      }
      // Alias: the bare head noun — shared by all forms of this base, which
      // recreates USDA-SR's natural ambiguity. The first comma-field of the
      // base is the noun ("beans, kidney" → "kidney beans" style names).
      val headWords = base.split(",\\s*").toSeq
      val aliasName = if (headWords.length > 1) headWords.tail.mkString(" ") + " " + headWords.head
                      else headWords.head
      val df = cat.aliasDf.getOrElse(form.split(",").head, "")
      aliases += Alias(id, aliasName, df = df)
    }
    (foods.result(), weights.result(), aliases.result())
  }

  private def round1(d: Double): Double = math.round(d * 10) / 10.0

  /** Ingredient names with no counterpart in the reference DB — the paper's
    * "region-centric" ingredients ('garam masala') that stay unmapped and
    * bound the match rate below 100% (they report 94.49%).
    */
  val unmappableNames: Seq[String] = Seq(
    "garam masala", "asafoetida", "jaggery", "paneer", "ajwain", "amchur",
    "kokum", "dashi", "gochujang", "doenjang", "sumac", "zaatar", "harissa",
    "shichimi", "furikake", "ponzu", "galangal", "pandan", "belacan",
    "urad dal", "moong dal", "poha", "sattu", "makhana", "kasuri methi",
  )

  def allFoods: Seq[UsdaFood]     = curatedFoods ++ expandedFoods
  def allWeights: Seq[UsdaWeight] = curatedWeights ++ expandedWeights
  def allAliases: Seq[Alias]      = curatedAliases ++ expandedAliases

  /** Foods as a DataFrame: ndbId, description, kcal100g, protein/fat/carb. */
  def foods(spark: SparkSession): DataFrame = {
    import spark.implicits._
    allFoods.toDF()
  }

  /** Gram weights as a DataFrame: ndbId, seq, amount, unit (raw), grams. */
  def weights(spark: SparkSession): DataFrame = {
    import spark.implicits._
    allWeights.toDF()
  }
}
