package repro.perfbench

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import scala.collection.mutable

/** One timed interval. Spans of one labelling share `run`; `parent` names
  * the span or phase ("setup", "gf") that caused this one, "" at top level.
  * Times are epoch milliseconds.
  */
final case class Span(name: String, run: Int, parent: String, startMs: Double, endMs: Double)

/** Wall-clock spans kept in memory, written out at the end of a traced run.
  * Without tracing they still return timings but record nothing.
  */
final class Spans(val enabled: Boolean) {
  private val epochMs0 = System.currentTimeMillis().toDouble
  private val nanos0   = System.nanoTime()
  val recorded         = mutable.ArrayBuffer.empty[Span]

  private def nowMs: Double = epochMs0 + (System.nanoTime() - nanos0) / 1e6

  /** Run `body`, returning its result and wall seconds. */
  def apply[T](name: String, run: Int = -1, parent: String = "")(body: => T): (T, Double) = {
    val start = nowMs
    val out   = body
    val end   = nowMs
    if (enabled) recorded += Span(name, run, parent, start, end)
    (out, (end - start) / 1e3)
  }
}

/** Totals of the Spark scheduler's work, as the session listener saw it. */
final case class SparkCounts(jobs: Long, stages: Long, tasks: Long, taskMs: Long, gcMs: Long,
                             shuffleWriteBytes: Long, shuffleReadBytes: Long) {
  def -(o: SparkCounts): SparkCounts = SparkCounts(jobs - o.jobs, stages - o.stages,
    tasks - o.tasks, taskMs - o.taskMs, gcMs - o.gcMs,
    shuffleWriteBytes - o.shuffleWriteBytes, shuffleReadBytes - o.shuffleReadBytes)
}

/** Counts jobs, completed stages and finished tasks with their executor run
  * time, GC time and shuffle bytes.
  */
final class SparkCounters extends SparkListener {
  private val jobs, stages, tasks, taskMs, gcMs, shuffleW, shuffleR = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      taskMs.addAndGet(m.executorRunTime)
      gcMs.addAndGet(m.jvmGCTime)
      shuffleW.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      shuffleR.addAndGet(m.shuffleReadMetrics.totalBytesRead)
    }
  }

  def snapshot: SparkCounts = SparkCounts(jobs.get, stages.get, tasks.get, taskMs.get, gcMs.get,
    shuffleW.get, shuffleR.get)
}

/** One Dataset action (`count`, `localCheckpoint`, `rdd`, `collect`, ...). */
final case class Action(funcName: String, nanos: Long, failed: Boolean)

/** Records every Dataset action's `funcName` and duration. */
final class ActionLog extends QueryExecutionListener {
  private val buf = mutable.ArrayBuffer.empty[Action]

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
    buf.synchronized { buf += Action(funcName, durationNs, failed = false) }
  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit =
    buf.synchronized { buf += Action(funcName, 0L, failed = true) }

  /** Actions recorded since the last call. */
  def take(): Seq[Action] = buf.synchronized { val out = buf.toList; buf.clear(); out }
}

/** Minimal JSON rendering for the result line and the trace file. */
object Json {
  def apply(v: Any): String = v match {
    case null                  => "null"
    case s: String             => quote(s)
    case b: Boolean            => b.toString
    case d: Double             => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Number             => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => s"${quote(k.toString)}: ${apply(x)}" }.mkString("{", ", ", "}")
    case s: Iterable[_]        => s.map(apply).mkString("[", ", ", "]")
    case other                 => quote(other.toString)
  }

  private def quote(s: String): String =
    s.flatMap {
      case '"'            => "\\\""
      case '\\'           => "\\\\"
      case c if c < ' '   => f"\\u${c.toInt}%04x"
      case c              => c.toString
    }.mkString("\"", "", "\"")
}
