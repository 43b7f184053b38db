package perfbench

import org.scalatest.funsuite.AnyFunSuite

import repro.jobs.Jobs

class SpanListenerSpec extends AnyFunSuite {

  private lazy val sc = Jobs.session("perfbench-test").sparkContext

  test("attributes a tiny known job's tasks, stages and shuffle to its span only") {
    val listener = new SpanListener
    sc.addSparkListener(listener)
    try {
      sc.parallelize(1 to 10, 2).map(_ + 1).collect() // outside any span
      listener.span(sc, "narrow")(sc.parallelize(1 to 100, 4).map(_ * 2).collect())
      listener.span(sc, "shuffle") {
        sc.parallelize(1 to 100, 4).map(i => (i % 3, i)).reduceByKey(_ + _, 2).collect()
      }

      val narrow = listener.work("narrow")
      assert(narrow.stages == 1 && narrow.tasks == 4 && narrow.shuffles == 0)
      assert(narrow.failedTasks == 0 && narrow.shuffleWriteBytes == 0 && narrow.shuffleReadBytes == 0)

      val shuffle = listener.work("shuffle")
      assert(shuffle.stages == 2 && shuffle.tasks == 6 && shuffle.shuffles == 1)
      // Map-side combine leaves 3 keys in each of the 4 map partitions.
      assert(shuffle.shuffleRecords == 12)
      assert(shuffle.shuffleWriteBytes > 0 && shuffle.shuffleReadBytes == shuffle.shuffleWriteBytes)
      assert(shuffle.cpuNs > 0 && shuffle.failedTasks == 0)

      assert(listener.work("absent") == SparkWork())
    } finally sc.removeSparkListener(listener)
  }

  test("counts a failed task against its span") {
    val listener = new SpanListener
    sc.addSparkListener(listener)
    try {
      intercept[Exception] {
        listener.span(sc, "failing") {
          sc.parallelize(1 to 4, 2).map(i => if (i == 4) throw new IllegalStateException("boom") else i).collect()
        }
      }
      val w = listener.work("failing")
      assert(w.failedTasks == 1 && w.tasks >= 1)
    } finally sc.removeSparkListener(listener)
  }
}
