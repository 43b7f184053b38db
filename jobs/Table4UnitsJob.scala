package repro.jobs

import repro.exp.Experiments

/** Reproduces paper Table IV: ingredient and unit relations for
  * Butter,salted after unit cleaning and lemmatization.
  */
object Table4UnitsJob {
  def main(args: Array[String]): Unit = {
    println("TABLE IV — INGREDIENT AND UNIT RELATIONS")
    println(Experiments.render(Experiments.table4))
  }
}
