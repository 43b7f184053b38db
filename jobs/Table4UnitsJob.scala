package repro.jobs

import repro.exp.Experiments

/** Reproduces paper Table IV: ingredient and unit relations for
  * Butter,salted after unit cleaning and lemmatization.
  */
object Table4UnitsJob {
  def main(args: Array[String]): Unit = {
    Jobs.out.println("TABLE IV — INGREDIENT AND UNIT RELATIONS")
    Jobs.out.println(Experiments.render(Experiments.table4))
  }
}
