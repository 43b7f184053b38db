package repro.jobs

import org.apache.spark.sql.DataFrame

import repro.exp.Experiments

/** Reproduces paper Table III: food descriptions inferred with the modified
  * vs the vanilla Jaccard index, side by side with the paper's rows, and how
  * many rows of each column agree with the paper.
  */
object Table3MatchingJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table3-matching")
    val table = Experiments.table3(spark)
    val (modified, vanilla) = agreement(table)
    val n = Experiments.TableIIIRows.length
    println("TABLE III — MODIFIED vs VANILLA JACCARD MATCHES")
    println(Experiments.render(table))
    println(s"modified-JI column agreement with paper: $modified/$n")
    println(s"vanilla-JI column agreement with paper:  $vanilla/$n")
    spark.stop()
  }

  /** Rows of [[Experiments.table3]] whose modified and whose vanilla match equal the paper's. */
  def agreement(table: DataFrame): (Long, Long) = {
    val rows = table.collect()
    def agree(measured: String, paper: String) = rows.count(r => r.getAs[String](measured) == r.getAs[String](paper)).toLong
    (agree("modifiedJI", "paperModifiedJI"), agree("vanillaJI", "paperVanillaJI"))
  }
}
