package repro.jobs

import repro.exp.Experiments

/** Reproduces paper Table III: food descriptions inferred with the modified
  * vs the vanilla Jaccard index, side by side with the paper's rows, and how
  * many rows of each column agree with the paper.
  */
object Table3MatchingJob {
  def main(args: Array[String]): Unit = {
    val table = Experiments.table3
    val (modified, vanilla) = agreement(table)
    val n = Experiments.TableIIIRows.length
    Jobs.out.println("TABLE III — MODIFIED vs VANILLA JACCARD MATCHES")
    Jobs.out.println(Experiments.render(table))
    Jobs.out.println(s"modified-JI column agreement with paper: $modified/$n")
    Jobs.out.println(s"vanilla-JI column agreement with paper:  $vanilla/$n")
  }

  /** Rows of [[Experiments.table3]] whose modified and whose vanilla match equal the paper's. */
  def agreement(table: Seq[Experiments.Table3Row]): (Int, Int) =
    (table.count(r => r.modifiedJI == r.paperModifiedJI), table.count(r => r.vanillaJI == r.paperVanillaJI))
}
