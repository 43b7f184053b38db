package perfbench

import java.lang.management.{ManagementFactory, MemoryType}

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, Observation, Row, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{JaccardMatcher, NerPipeline, NutritionEstimator, UnitMatcher}
import repro.data.UsdaData
import repro.exp.Experiments
import repro.jobs.Jobs
import repro.nlp.NerModel

/** The pipeline benchmark: ingredient lines in, per-recipe profiles out.
  *
  * Usage: `Main --workload corpus|longtail --seed N --seconds S --trace 0|1`.
  * Prints a human-readable report, then as its last line one JSON object with
  * `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
  * are the end-to-end ones; with `--trace 1` they are per layer, from a
  * separate run that times each layer's public function on its own.
  */
object Main {

  val Workloads: Seq[String] = Seq("corpus", "longtail")

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  def parseArgs(args: Array[String]): Args = {
    val pairs = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    require(pairs.size * 2 == args.length, s"expected --name value pairs, got ${args.mkString(" ")}")
    def arg(k: String): String = pairs.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = arg("workload")
    require(Workloads.contains(workload), s"unknown workload $workload; one of ${Workloads.mkString(", ")}")
    val seconds = arg("seconds").toInt
    require(seconds >= 1, "--seconds must be at least 1")
    val trace = arg("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    Args(workload, arg("seed").toLong, seconds, trace)
  }

  /** A started pipeline: Spark session, reference tables and NER model. */
  final case class Pipeline(spark: SparkSession, foods: DataFrame, weights: DataFrame,
                            model: NerModel, nerPhrases: Int)

  final case class Setup(pipeline: Pipeline, seconds: Double, trainSeconds: Double)

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, secondsSince(t0))
  }

  /** Time `body`, inside span `name` when tracing. */
  private def span[A](listener: Option[SpanListener], spark: SparkSession, name: String)
                     (body: => A): (A, Double) =
    listener.fold(timed(body))(_.span(spark.sparkContext, name)(body))

  /** Start the session through the program's own bootstrap, load the
    * reference tables and train the production NER model (8,800
    * cluster-selected phrases, 8 epochs, as the bench suites use).
    */
  def setup(listener: Option[SpanListener]): Setup = {
    val t0    = System.nanoTime()
    val spark = Jobs.session("perfbench")
    listener.foreach(spark.sparkContext.addSparkListener)
    val foods   = UsdaData.foods(spark)
    val weights = UsdaData.weights(spark)
    foods.collect(); weights.collect()
    val ((model, _, corpus), train) = span(listener, spark, "nlp.NerTrainer") {
      Experiments.trainNer(spark, nPhrases = 8800, epochs = 8, seed = 99)
    }
    Setup(Pipeline(spark, foods, weights, model, corpus.size), secondsSince(t0), train)
  }

  final case class Pass(seconds: Double, recipes: Array[Row], lines: Seq[Row], problems: Seq[String])

  /** One timed pass: `NutritionEstimator.perLine` then `perRecipe` (the two
    * calls `estimate` makes), forced by collecting every per-recipe column,
    * with the per-line rows observed between them for the checks. `count()`
    * is never used: under it Spark may prune columns and skip the UDFs that
    * make them.
    */
  def pass(p: Pipeline, input: Input): Pass = {
    val lines = input.toDF(p.spark)
    val obs   = new Observation()
    val t0    = System.nanoTime()
    try {
      val perLine = NutritionEstimator.perLine(lines, p.model, p.foods, p.weights)
      val recipes = NutritionEstimator.perRecipe(Check.observe(perLine, obs)).collect()
      val seconds = secondsSince(t0)
      val rows    = Check.rows(obs)
      Pass(seconds, recipes, rows, Check.pass(input, rows, recipes))
    } catch {
      case NonFatal(e) => Pass(secondsSince(t0), Array.empty, Nil, Seq(s"threw $e"))
    } finally {
      // perLine caches its NER output and never releases it; without this
      // every pass would add to the heap that later passes run in.
      p.spark.catalog.clearCache()
    }
  }

  /** Driver old-generation occupancy after a full GC, in MB. */
  def oldGenMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(m => m.getType == MemoryType.HEAP && (m.getName.contains("Old") || m.getName.contains("Tenured")))
      .map(_.getUsage.getUsed).sum / 1e6
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** The workload's input, made from the run's seed. */
  def input(spark: SparkSession, a: Args): Input = a.workload match {
    case "corpus"   => Inputs.corpus(spark, a.seed)
    case "longtail" => Longtail.input(Inputs.LongtailLines, a.seed)
  }

  final case class Result(correct: Boolean, attempted: Int, failed: Int,
                          metrics: Seq[(String, Double, String)])

  private def report(tag: String, pass: Pass): Unit =
    println(f"$tag%-6s ${pass.seconds}%9.3f s ${pass.lines.length}%7d lines  digest=${Check.digest(pass.lines)}%010x" +
            (if (pass.problems.isEmpty) "  ok" else pass.problems.take(5).mkString("  FAILED: ", "; ", "")))

  /** The end-to-end run: a cold pass, then warm passes for `a.seconds`.
    * Every pass is checked; quality is scored on the cold one.
    */
  def measure(p: Pipeline, setupS: Double, a: Args): Result = {
    val in     = input(p.spark, a)
    val passes = mutable.ArrayBuffer.empty[Pass]
    var heapMb = oldGenMb()
    def run(tag: String): Unit = {
      val ps = pass(p, in)
      // The same input must give identical output on every pass.
      val drift = passes.headOption
        .filter(first => ps.problems.isEmpty && Check.digest(first.lines) != Check.digest(ps.lines))
        .map(_ => "output differs from the first pass")
      val checked = ps.copy(problems = ps.problems ++ drift)
      report(tag, checked)
      passes += checked
      // The full GC also makes every pass start from the same heap; passes
      // without it vary more from run to run.
      heapMb = math.max(heapMb, oldGenMb())
    }
    run("cold")
    val t0 = System.nanoTime()
    while (passes.length == 1 || secondsSince(t0) < a.seconds) run("warm")
    val cold   = passes.head
    val warm   = passes.drop(1).toSeq
    val times  = warm.map(_.seconds)
    val failed = passes.count(_.problems.nonEmpty)
    println(s"passes: ${passes.length} (1 cold, ${warm.length} warm); failed_frac = $failed/${passes.length}")
    Result(
      correct   = failed == 0,
      attempted = passes.length,
      failed    = failed,
      metrics   = Seq(
        ("setup_s", setupS, "s"),
        ("cold_pass_s", cold.seconds, "s"),
        ("pass_s.p50", median(times), "s"),
        ("lines_per_s", warm.map(_.lines.length).sum / times.sum, "1/s"),
        ("line_match_pct", Check.lineMatchPct(in, cold.lines), "%"),
        ("fully_mapped_pct", Check.fullyMappedPct(cold.lines), "%"),
        ("kcal_mae_per_serving", Check.kcalMae(in, cold.recipes), "kcal"),
        ("heap_peak_mb", heapMb, "MB"),
      ))
  }

  /** Spans whose Spark work the traced run reports. `spark` is one whole
    * pass; the `core.*` spans each force one layer's public function on the
    * materialised output of the layers before it.
    */
  val Spans: Seq[String] = Seq(
    "nlp.NerTrainer", "core.NerPipeline", "core.JaccardMatcher", "core.UnitMatcher",
    "core.NutritionEstimator", "spark")

  private val LayerSpans = Spans.filter(_.startsWith("core."))

  private def noop(df: DataFrame): Unit = df.write.format("noop").mode("overwrite").save()

  /** `df` computed once and held in an RDD, as the input of a layer. */
  private def materialise(spark: SparkSession, df: DataFrame): DataFrame = {
    val rows = df.collect().toSeq
    spark.createDataFrame(spark.sparkContext.parallelize(rows, spark.sparkContext.defaultParallelism), df.schema)
  }

  /** The traced run: after one untimed warm-up pass, each round runs one
    * whole pass, then forces each layer on its own, on inputs materialised
    * outside the spans; rounds repeat for `a.seconds`. Busy times are medians
    * over rounds, Spark work is per round, and work counts come from the
    * first round. `trace.unattributed_s` is the whole pass minus the layers'
    * sum: the joins between layers and the planning of one large query.
    */
  def trace(p: Pipeline, setup: Setup, a: Args, listener: SpanListener): Result = {
    val spark  = p.spark
    val busy   = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    val counts = mutable.LinkedHashMap.empty[String, (Double, String)]
    def traced[A](name: String)(body: => A): A = {
      val (a, s) = listener.span(spark.sparkContext, name)(body)
      busy.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += s
      a
    }
    val ref    = p.foods.select("ndbId", "description")
    val keys   = Seq("name", "state", "temp", "df").map(col)
    var rounds = 0
    var failed = 0
    report("warmup", pass(p, input(spark, a)))
    val t0 = System.nanoTime()
    while (rounds == 0 || secondsSince(t0) < a.seconds) {
      val input = traced("data.RecipeData")(Main.input(spark, a))
      val whole = traced("spark")(pass(p, input))
      report("pass", whole)
      if (whole.problems.nonEmpty) failed += 1

      // The per-line output, computed outside any span, feeds the layers below.
      val perLine  = materialise(spark, NutritionEstimator.perLine(input.toDF(spark), p.model, p.foods, p.weights))
      spark.catalog.clearCache()
      val uniq     = materialise(spark, perLine.select(keys: _*).distinct().withColumn("ingId", xxhash64(keys: _*)))
      val withFood = perLine.select(Seq("recipeId", "lineNo", "phrase", "servings", "name", "state", "quantity",
                                        "unit", "temp", "df", "size", "ndbId", "score").map(col): _*)
      val lines    = input.toDF(spark)

      traced("core.NerPipeline")(noop(NerPipeline.annotate(p.model, lines)))
      traced("core.JaccardMatcher")(noop(JaccardMatcher.matchBest(uniq, ref, JaccardMatcher.Modified)))
      traced("core.UnitMatcher")(noop(UnitMatcher.resolve(withFood, p.weights)))
      val recipes = traced("core.NutritionEstimator")(NutritionEstimator.perRecipe(perLine).collect())

      if (rounds == 0) {
        // Single-thread tagging of the distinct phrases, for at least half a second.
        val tokens = input.lines.map(_.phrase).distinct.map(NerPipeline.tokenize)
        var n = 0L
        val (_, s) = timed {
          val t = System.nanoTime()
          while (n == 0 || secondsSince(t) < 0.5) { tokens.foreach(p.model.tag); n += tokens.map(_.length).sum }
        }
        val nLines   = input.lines.length.toDouble
        val distinct = tokens.length.toDouble
        val resolved = perLine.filter(col("unitResolved")).select("lineNo").collect().length.toDouble
        counts ++= Seq(
          "nlp.NerTrainer.phrases"               -> (p.nerPhrases.toDouble, "count"),
          "nlp.NerModel.tokens_per_s"            -> (n / s, "1/s"),
          "nlp.NerModel.phrases"                 -> (distinct, "count"),
          "core.NerPipeline.lines"               -> (nLines, "count"),
          "core.NerPipeline.distinct_phrases"    -> (distinct, "count"),
          "core.NerPipeline.useful_ratio"        -> (distinct / nLines, "ratio"),
          "core.JaccardMatcher.keys"             -> (uniq.collect().length.toDouble, "count"),
          "core.JaccardMatcher.candidate_pairs"  ->
            (JaccardMatcher.scoreCandidates(uniq, ref).select("ingId").collect().length.toDouble, "count"),
          "core.JaccardMatcher.matched"          ->
            (perLine.filter(col("ndbId").isNotNull).select(keys: _*).distinct().collect().length.toDouble, "count"),
          "core.UnitMatcher.lines"               -> (nLines, "count"),
          "core.UnitMatcher.resolved"            -> (resolved, "count"),
          "core.UnitMatcher.resolved_ratio"      -> (resolved / nLines, "ratio"),
          "core.NutritionEstimator.recipes"      -> (recipes.length.toDouble, "count"),
          "data.RecipeData.busy_s"               -> (busy("data.RecipeData").head, "s"))
      }
      spark.catalog.clearCache()
      rounds += 1
    }

    val busyMedian = busy.map { case (k, v) => k -> median(v.toSeq) }
    val layerSum   = LayerSpans.map(busyMedian).sum
    println(f"traced rounds: $rounds; layers sum to $layerSum%.3f s against ${busyMedian("spark")}%.3f s for a whole pass")
    val perSpan = Spans.flatMap { s =>
      val w   = listener.work(s)
      // Training ran once; the other spans ran once per round.
      val per = if (s == "nlp.NerTrainer") 1.0 else rounds.toDouble
      Seq(
        (s"$s.busy_s", if (s == "nlp.NerTrainer") setup.trainSeconds else busyMedian(s), "s"),
        (s"$s.cpu_s", w.cpuNs / 1e9 / per, "s"),
        (s"$s.gc_s", w.gcMs / 1e3 / per, "s"),
        (s"$s.shuffle_read_bytes", w.shuffleReadBytes / per, "B"),
        (s"$s.shuffle_write_bytes", w.shuffleWriteBytes / per, "B"),
        (s"$s.shuffle_records", w.shuffleRecords / per, "count"),
        (s"$s.stages", w.stages / per, "count"),
        (s"$s.shuffles", w.shuffles / per, "count"),
        (s"$s.tasks", w.tasks / per, "count"),
        (s"$s.failed_tasks", w.failedTasks / per, "count"))
    }
    Result(
      correct   = failed == 0,
      attempted = rounds,
      failed    = failed,
      metrics   = perSpan ++ counts.toSeq.map { case (k, (v, u)) => (k, v, u) } ++ Seq(
        ("trace.layer_sum_s", layerSum, "s"),
        ("trace.unattributed_s", busyMedian("spark") - layerSum, "s")))
  }

  def settings(spark: SparkSession): String = {
    val xmx = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
      .find(_.startsWith("-Xmx")).map(_.drop(4)).getOrElse("(JVM default)")
    Seq(
      s"master=${spark.sparkContext.master}",
      s"spark.sql.shuffle.partitions=${spark.conf.get("spark.sql.shuffle.partitions")}",
      s"spark.sql.autoBroadcastJoinThreshold=${spark.conf.get("spark.sql.autoBroadcastJoinThreshold")}",
      s"driverMemory=$xmx",
      s"defaultParallelism=${spark.sparkContext.defaultParallelism}",
      s"spark=${spark.version}",
      s"java=${System.getProperty("java.version")}",
    ).mkString("settings: ", " ", "")
  }

  def json(r: Result): String = {
    def num(v: Double): String = {
      require(!v.isNaN && !v.isInfinite, "metric values must be finite")
      v.toString
    }
    r.metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
      .mkString(s"""{"correct": ${r.correct}, "attempted": ${r.attempted}, "failed": ${r.failed}, "metrics": {""",
                ", ", "}}")
  }

  def main(argv: Array[String]): Unit = {
    val a        = parseArgs(argv)
    val listener = if (a.trace) Some(new SpanListener) else None
    val setupRun = setup(listener)
    val p        = setupRun.pipeline
    println(s"perfbench: workload=${a.workload} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0}")
    println(settings(p.spark))
    println(f"setup: ${setupRun.seconds}%.3f s, of which NER training ${setupRun.trainSeconds}%.3f s")
    val result = listener.fold(measure(p, setupRun.seconds, a))(trace(p, setupRun, a, _))
    for ((n, v, u) <- result.metrics) println(f"  $n%-44s $v%18.6f $u")
    p.spark.stop()
    println(json(result))
    System.out.flush()
    sys.exit(0)
  }
}
