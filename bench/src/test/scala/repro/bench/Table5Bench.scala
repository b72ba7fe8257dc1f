package repro.bench

import repro.SparkSpec

/** Table V — FCM vs FCM-HCMAN (the hierarchical cross-modal attention
  * ablation). Paper: FCM wins overall (.454 vs .368 prec@50) and in every
  * M bucket, with the gap growing as M increases.
  */
class Table5Bench extends SparkSpec {

  test("Table V: effectiveness of FCM vs FCM-HCMAN") {
    val e = BenchCtx.full
    BenchCtx.banner("Table V: FCM vs FCM-HCMAN (prec@%d / ndcg@%d)".format(e.cfg.k, e.cfg.k))
    val rows = e.tableV()
    println(Report.renderMethodTable(rows))
    // shape: fine-grained matching beats pooled matching overall
    val overall = rows.toMap.apply("Overall")
    val f = overall.find(_.method == "FCM").get
    val h = overall.find(_.method == "FCM-HCMAN").get
    assert(f.prec >= h.prec, s"FCM ${f.prec} vs FCM-HCMAN ${h.prec}")
    assert(f.ndcg >= h.ndcg)
  }
}
