package perfbench

import java.io.{BufferedWriter, File, FileWriter}
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

/** One timed call into a layer. `name` is `<layer>.<call>`; `req` is the
  * query id (or table id inside a pass) the call worked for, -1 if none.
  */
final case class Span(id: Long, parent: Long, name: String, req: Long, startNs: Long, endNs: Long) {
  def layer: String = name.takeWhile(_ != '.')
}

/** In-memory span recorder. Off by default, so untraced runs pay nothing but
  * a volatile read. Spark runs its tasks in this JVM (`local[N]`), so spans
  * opened inside a pass's executor closure land in the same buffer.
  */
object Trace {
  @volatile var enabled: Boolean = false

  private val ids   = new AtomicLong(0L)
  private val spans = new ConcurrentLinkedQueue[Span]()

  /** Run `f` inside a span; `f` gets the span id to use as a parent. */
  def span[A](name: String, parent: Long = 0L, req: Long = -1L)(f: Long => A): A =
    if (!enabled) f(0L)
    else {
      val id = ids.incrementAndGet()
      val t0 = System.nanoTime()
      try f(id)
      finally spans.add(Span(id, parent, name, req, t0, System.nanoTime()))
    }

  def all: Seq[Span] = spans.asScala.toSeq

  /** Self time of every span: its duration minus the union of the parts
    * of its interval that its children cover (children may overlap when
    * they run on several executor threads).
    */
  def selfNs(ss: Seq[Span]): Map[Long, Long] = {
    val kids = ss.groupBy(_.parent)
    ss.map { s =>
      val iv = kids.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curA = Long.MinValue
      var curB = Long.MinValue
      iv.foreach { case (a, b) =>
        if (a > curB) {
          if (curB > curA) covered += curB - curA
          curA = a; curB = b
        } else if (b > curB) curB = b
      }
      if (curB > curA) covered += curB - curA
      s.id -> (s.endNs - s.startNs - covered)
    }.toMap
  }

  /** Write every span as one JSON object per line. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val ss   = all.sortBy(_.id)
    val self = selfNs(ss)
    val w    = new BufferedWriter(new FileWriter(file))
    try ss.foreach { s =>
      w.write(
        s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","req":${s.req},""" +
          s""""start_ns":${s.startNs},"end_ns":${s.endNs},"self_ns":${self(s.id)}}""")
      w.newLine()
    }
    finally w.close()
  }
}
