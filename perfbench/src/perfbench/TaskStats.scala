package perfbench

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}

import org.apache.spark.scheduler._

import scala.jdk.CollectionConverters._

/** Task-level numbers of one pass (one Spark job group). */
final case class PassTasks(runMs: Double, cpuMs: Double, gcMs: Double, resultBytes: Long, skew: Double)

/** Collects task metrics per job group. The benchmark tags each timed pass
  * with its own job group, so tasks of set-up and ground-truth jobs are not
  * counted. Listener events arrive asynchronously; `await` waits for them.
  */
final class TaskStats extends SparkListener {
  private final case class Task(stage: Int, runMs: Double, cpuMs: Double, gcMs: Double, resultBytes: Long)

  private val groupOfStage = new ConcurrentHashMap[Int, String]()
  private val tasks        = new ConcurrentHashMap[String, ConcurrentLinkedQueue[Task]]()
  private val jobsStarted  = new ConcurrentHashMap[Int, String]()
  private val jobsEnded    = ConcurrentHashMap.newKeySet[Int]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val g = Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
    if (g != null) {
      jobsStarted.put(e.jobId, g)
      e.stageIds.foreach(groupOfStage.put(_, g))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobsEnded.add(e.jobId)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val g = groupOfStage.get(e.stageId)
    val m = e.taskMetrics
    if (g != null && m != null)
      tasks.computeIfAbsent(g, _ => new ConcurrentLinkedQueue[Task]()).add(
        Task(e.stageId, m.executorRunTime.toDouble, m.executorCpuTime / 1e6, m.jvmGCTime.toDouble, m.resultSize))
  }

  /** Wait (up to `timeoutMs`) until every tagged job seen so far has ended
    * and `groups` groups have at least one job.
    */
  def await(groups: Int, timeoutMs: Long = 10000L): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    def done = jobsStarted.values.asScala.toSet.size >= groups &&
      jobsStarted.keySet.asScala.forall(jobsEnded.contains)
    while (!done && System.currentTimeMillis() < deadline) Thread.sleep(20)
  }

  def pass(group: String): PassTasks = {
    val ts = Option(tasks.get(group)).map(_.asScala.toSeq).getOrElse(Nil)
    val skews = ts.groupBy(_.stage).values.map { st =>
      val run = st.map(_.runMs).sorted
      if (run.isEmpty) 1.0 else run.last / math.max(Stats.median(run), 1.0)
    }
    PassTasks(
      ts.map(_.runMs).sum,
      ts.map(_.cpuMs).sum,
      ts.map(_.gcMs).sum,
      ts.map(_.resultBytes).sum,
      if (skews.isEmpty) 1.0 else skews.max
    )
  }
}
