package repro.jobs

import java.io.{FileDescriptor, FileOutputStream, OutputStream, PrintStream}

import org.apache.spark.sql.SparkSession

/** Shared bootstrap for the spark-submit entrypoint, `ResultsJob`. */
object Jobs {
  def session(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** First CLI arg as scale factor, a finite number above 0, defaulting to 0.1 (bench scale). */
  def sfArg(args: Array[String]): Double = {
    val sf = args.headOption.fold(Option(0.1))(_.toDoubleOption)
    require(sf.exists(x => x > 0 && !x.isInfinite), s"scale factor must be a finite number above 0, got ${args.head}")
    sf.get
  }

  /** `stream` as UTF-8 text, flushed at each line. */
  def utf8(stream: OutputStream): PrintStream = new PrintStream(stream, true, "UTF-8")

  /** Standard output in UTF-8 under any locale: `ResultsJob` prints `—`, `§` and `∅`. */
  val out: PrintStream = utf8(new FileOutputStream(FileDescriptor.out))
}
