package repro.jobs

import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import repro.bench.BenchConfig

/** Prints one SHA-256 per ranking artefact of the experiment: the eight
  * `Experiment` rankings, both ground truths, the raw bits of the three
  * trained head weight vectors and the Table VIII rows without their times.
  * A change is ranking-neutral when the parent and the change print the
  * same digests on the same machine (the TPC-H pool depends on the core
  * count, so digests from different machines do not compare).
  *
  * Usage: sbt "jobs/runMain repro.jobs.RankDigest [scale]" (default: unit)
  */
object RankDigest {

  private def sha256(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes(StandardCharsets.UTF_8)).map("%02x".format(_)).mkString

  private def ranking(r: Map[Int, Array[Long]]): String =
    r.toSeq.sortBy(_._1).map { case (q, ids) => s"$q:${ids.mkString(",")}" }.mkString("\n")

  private def bits(xs: Seq[Double]): String =
    xs.map(x => java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(x))).mkString(",")

  private def put(name: String, artefact: => String): Unit = println(f"$name%-18s ${sha256(artefact)}")

  def main(args: Array[String]): Unit = {
    val e = Jobs.experiment(args, BenchConfig.unit)
    put("rank.fcm", ranking(e.rankFcm))
    put("rank.fcm_sweep", ranking(e.rankFcmSweep))
    put("rank.hcman_off", ranking(e.rankHcmanOff))
    put("rank.da_off", ranking(e.rankDaOff))
    put("rank.cml", ranking(e.rankCml))
    put("rank.qetch", ranking(e.rankQetch))
    put("rank.deln", ranking(e.rankDeLn))
    put("rank.optln", ranking(e.rankOptLn))
    put("gt.main", ranking(e.gtMain))
    put("gt.sweep", ranking(e.gtSweep))
    put("weights.fcm", bits(e.fcmCfg.headWeights))
    put("weights.hcman_off", bits(e.hcmanOffCfg.headWeights))
    put("weights.da_off", bits(e.daOffCfg.headWeights))
    put("table.viii", e.tableVIII().map(r => s"${r.strategy} ${bits(Seq(r.prec, r.ndcg, r.avgCandidates))}").mkString("\n"))
  }
}
