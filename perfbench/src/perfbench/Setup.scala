package perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.bench.{Bench, BenchTable}
import repro.core.{DatasetEncoder, FcmConfig, Training}
import repro.index.{ColumnKey, HybridIndex}

/** What a workload serves from: the persisted repository, the trained full
  * FCM and the hybrid index.
  */
final case class Ready(ds: Dataset[BenchTable], fcm: FcmConfig, index: HybridIndex)

final case class SetupTimes(persistMs: Double, trainMs: Double, indexMs: Double) {
  def totalS: Double = (persistMs + trainMs + indexMs) / 1e3
}

/** Set-up from generated inputs to ready-to-serve, done the way
  * `repro.bench.Experiment` does it (persist + count, semi-hard head with
  * three negatives, 14-bit / 2-flip index over base-segment column keys),
  * except that the repository is spread over `Partitions` per core.
  */
object Setup {

  /** Set-ups per run; `setup_s` is their median. */
  val Reps = 3

  /** Repository partitions per core. Table cost varies a lot with shape (and
    * generated order puts the widest tables last), so with one partition per
    * core a pass waits for whichever partition holds them; several smaller
    * round-robin partitions per core let Spark balance the load.
    */
  val Partitions = 4

  private def timed[A](name: String)(f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = Trace.span(name)(_ => f)
    (a, Stats.ms(t0))
  }

  def once(spark: SparkSession, b: Bench): (Ready, SetupTimes) = {
    val sp = spark
    import sp.implicits._
    val (ds, persistMs) = timed("bench.persist") {
      val ds = sp.createDataset(b.repo.toSeq).repartition(Partitions * sp.sparkContext.defaultParallelism).persist()
      ds.count()
      ds
    }
    val base = FcmConfig()
    val (fcm, trainMs) = timed("core.train_head") {
      base.withWeights(Training.trainHead(b.trainPacks, base, 3, Training.NegStrategy.SemiHard))
    }
    val (index, indexMs) = timed("index.build") {
      val keyCfg = base.copy(useDa = false)
      val keys = b.repo.flatMap { t =>
        t.cols.indices.map { i =>
          val e = DatasetEncoder.encodeColumn(i, t.cols(i), keyCfg)
          ColumnKey(t.id, i, e.min, e.max, e.sum, e.pooled)
        }
      }
      HybridIndex.build(keys.toIndexedSeq, bits = 14, flips = 2, seed = b.cfg.seed)
    }
    (Ready(ds, fcm, index), SetupTimes(persistMs, trainMs, indexMs))
  }

  /** Set up `Reps` times from scratch and keep the last. Each earlier
    * repository is unpersisted first: the copies share one plan, so Spark
    * would otherwise treat the later persists as already cached.
    */
  def run(spark: SparkSession, b: Bench): (Ready, Seq[SetupTimes]) = {
    val all = (1 to Reps).foldLeft(Vector.empty[(Ready, SetupTimes)]) { (done, _) =>
      done.lastOption.foreach(_._1.ds.unpersist(blocking = true))
      done :+ once(spark, b)
    }
    (all.last._1, all.map(_._2))
  }
}
