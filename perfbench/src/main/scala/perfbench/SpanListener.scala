package perfbench

import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable

import org.apache.spark.{SparkContext, Success}
import org.apache.spark.scheduler._

/** Spark work attributed to one span, summed over its tasks and stages. */
final case class SparkWork(
    tasks: Long = 0, failedTasks: Long = 0, stages: Long = 0, shuffles: Long = 0,
    cpuNs: Long = 0, gcMs: Long = 0,
    shuffleReadBytes: Long = 0, shuffleWriteBytes: Long = 0, shuffleRecords: Long = 0)

/** Attributes Spark task metrics to the span that was open on the driver
  * thread when each job was submitted.
  *
  * A span is a local property of the submitting thread; Spark copies it into
  * every stage of the job, so each task's metrics land in the span that caused
  * them. Listener events arrive asynchronously: [[span]] runs a marker job and
  * waits until the listener has seen it, so the span's totals are complete
  * when it returns.
  */
final class SpanListener extends SparkListener {
  import SpanListener._

  private val stageSpan   = mutable.HashMap.empty[Int, String]
  private val mapStages   = mutable.HashSet.empty[Int]
  private val jobMarker   = mutable.HashMap.empty[Int, Long]
  private val totals      = mutable.HashMap.empty[String, SparkWork]
  private var markersSeen = 0L
  private val markers     = new AtomicLong(0)

  private def add(span: String)(f: SparkWork => SparkWork): Unit =
    totals(span) = f(totals.getOrElse(span, SparkWork()))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    props.flatMap(p => Option(p.getProperty(MarkerKey))).foreach(m => jobMarker(e.jobId) = m.toLong)
    props.flatMap(p => Option(p.getProperty(SpanKey))).foreach { s =>
      e.stageInfos.foreach(si => stageSpan(si.stageId) = s)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobMarker.remove(e.jobId).foreach { m => markersSeen = math.max(markersSeen, m); notifyAll() }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    val shuffle = mapStages.remove(info.stageId)
    stageSpan.get(info.stageId).foreach { s =>
      add(s)(w => w.copy(stages = w.stages + 1, shuffles = w.shuffles + (if (shuffle) 1 else 0)))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (e.taskType == "ShuffleMapTask") mapStages += e.stageId
    stageSpan.get(e.stageId).foreach { s =>
      val failed = e.reason != Success
      val m      = Option(e.taskMetrics)
      add(s)(w => w.copy(
        tasks             = w.tasks + 1,
        failedTasks       = w.failedTasks + (if (failed) 1 else 0),
        cpuNs             = w.cpuNs + m.map(_.executorCpuTime).getOrElse(0L),
        gcMs              = w.gcMs + m.map(_.jvmGCTime).getOrElse(0L),
        shuffleReadBytes  = w.shuffleReadBytes + m.map(_.shuffleReadMetrics.totalBytesRead).getOrElse(0L),
        shuffleWriteBytes = w.shuffleWriteBytes + m.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L),
        shuffleRecords    = w.shuffleRecords + m.map(_.shuffleWriteMetrics.recordsWritten).getOrElse(0L)))
    }
  }

  /** Totals of `span` so far; zero when it caused no Spark work. */
  def work(span: String): SparkWork = synchronized(totals.getOrElse(span, SparkWork()))

  /** Run `body` inside `span`; returns its result and wall seconds. */
  def span[A](sc: SparkContext, name: String)(body: => A): (A, Double) = {
    val previous = sc.getLocalProperty(SpanKey)
    sc.setLocalProperty(SpanKey, name)
    val t0      = System.nanoTime()
    var seconds = 0.0
    val result =
      try body
      finally {
        seconds = (System.nanoTime() - t0) / 1e9
        sc.setLocalProperty(SpanKey, previous)
        sync(sc)
      }
    (result, seconds)
  }

  /** Block until every event posted before this call has been delivered. */
  private def sync(sc: SparkContext): Unit = {
    val m = markers.incrementAndGet()
    val span = sc.getLocalProperty(SpanKey)
    sc.setLocalProperty(SpanKey, null)
    sc.setLocalProperty(MarkerKey, m.toString)
    try sc.parallelize(Seq(0), 1).foreach(_ => ())
    finally {
      sc.setLocalProperty(MarkerKey, null)
      sc.setLocalProperty(SpanKey, span)
    }
    val deadline = System.nanoTime() + 60L * 1000000000L
    synchronized {
      while (markersSeen < m) {
        val left = (deadline - System.nanoTime()) / 1000000L
        if (left <= 0) throw new IllegalStateException("Spark listener events did not arrive in 60 s")
        wait(left)
      }
    }
  }
}

object SpanListener {
  val SpanKey   = "perfbench.span"
  val MarkerKey = "perfbench.marker"
}
