package repro.bench

import repro.SparkSpec
import repro.core.FcmConfig

class EngineSpec extends SparkSpec {

  private lazy val exp = UnitCtx.exp

  private def retrievers: Seq[(String, Retriever[_, _])] = Seq(
    "fcm"   -> Retriever.fcm(FcmConfig()),
    "cml"   -> Retriever.cml,
    "qetch" -> Retriever.qetch,
    "deln"  -> Retriever.deln(exp.cfg.chartW, exp.cfg.chartH),
    "optLn" -> Retriever.optLn(exp.cfg.chartW, exp.cfg.chartH),
    "gt"    -> Retriever.gt
  )

  test("pass emits a full ranking per query (no index)") {
    val (ranks, ms) = Engine.rank(spark, exp.tablesDs, exp.bench.queries, Retriever.cml)
    assert(ms >= 0)
    assert(ranks.keySet == exp.bench.queries.map(_.qid).toSet)
    ranks.values.foreach(r => assert(r.length == exp.bench.repo.length))
  }

  test("rankings are sorted by descending score with deterministic ties") {
    val (a, _) = Engine.rank(spark, exp.tablesDs, exp.bench.queries, Retriever.cml)
    val (b, _) = Engine.rank(spark, exp.tablesDs, exp.bench.queries, Retriever.cml)
    a.foreach { case (qid, ranked) => assert(ranked.toSeq == b(qid).toSeq) }
  }

  test("restriction maps limit the scored tables") {
    val q = exp.bench.queries.head
    val allowed = exp.bench.repo.take(10).map(_.id).toSet
    retrievers.foreach { case (name, r) =>
      val (ranks, _) = Engine.rank(spark, exp.tablesDs, Array(q), r, Map(q.qid -> allowed))
      assert(ranks(q.qid).toSet == allowed, name)
    }
  }

  test("a restricted pass encodes only the tables some query may score") {
    val encodes = spark.sparkContext.longAccumulator("table encodes")
    val counting = Retriever[Array[Double], Array[Double]](
      Retriever.cml.query,
      t => { encodes.add(1); Retriever.cml.table(t) },
      Retriever.cml.score
    )
    val allowed  = exp.bench.repo.take(10).map(_.id).toSet
    val restrict = exp.bench.queries.map(q => q.qid -> allowed).toMap
    Engine.rank(spark, exp.tablesDs, exp.bench.queries, counting, restrict)
    assert(exp.bench.repo.length > 10)
    assert(encodes.sum == 10L)
  }

  test("rankings do not depend on the repository's partitioning") {
    val qs = exp.bench.queries
    Seq("fcm" -> Retriever.fcm(exp.fcmCfg), "gt" -> Retriever.gt).foreach { case (name, r) =>
      val (one, _)   = Engine.rank(spark, exp.tablesDs.repartition(1), qs, r)
      val (seven, _) = Engine.rank(spark, exp.tablesDs.repartition(7), qs, r)
      assert(one.keySet == qs.map(_.qid).toSet, name)
      one.foreach { case (qid, ranked) => assert(ranked.toSeq == seven(qid).toSeq, s"$name query $qid") }
    }
  }

  test("fcmRank covers sweep queries too") {
    val (ranks, _) = Engine.fcmRank(spark, exp.tablesDs, exp.bench.sweep.take(2), FcmConfig())
    assert(ranks.size == 2)
  }

  test("gtRank gives the source table a perfect score for plain queries") {
    val q = exp.bench.queries.find(!_.isDa).get
    val (ranks, _) = Engine.gtRank(spark, exp.tablesDs, Array(q))
    assert(ranks(q.qid).head == q.sourceTable)
  }
}
