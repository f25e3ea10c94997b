package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.baselines.Cracker
import repro.core.RandomisedContraction
import repro.datasets.DatasetCatalog
import repro.harness.{BenchHarness, TableFormat}

/** Shared spark-submit plumbing: one SparkSession per job, bench-scale knobs
  * via env (`BENCH_SCALE`, `SPARK_SHUFFLE_PARTITIONS`).
  */
object Jobs {
  def session(app: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "8"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

/** Reproduces Table I (complexity summary) empirically: RC round counts
  * across doubling sizes and the contraction factor. `spark-submit --class
  * repro.jobs.TableIJob`.
  */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("tableI")
    import repro.datasets.Generators
    val rows = Seq(4096L, 8192L, 16384L, 32768L).map { n =>
      val run = RandomisedContraction().run(Generators.path(spark, n), seed = 5L)
      Seq(s"path $n", run.rounds.toString)
    }
    println(TableFormat.render(Seq("input", "RC rounds (exp O(log V))"), rows))
    spark.stop()
  }
}

/** Reproduces Table II (dataset statistics). */
object TableIIJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("tableII")
    val rows = DatasetCatalog.all.map { d =>
      val s = BenchHarness.prepare(spark, d.build)
      val r = (d, s)
      s.edges.unpersist()
      r
    }
    println(TableFormat.tableII(rows))
    spark.stop()
  }
}

/** Runs the Tables III–V sweep and prints the requested table. */
abstract class SweepJob(table: String) {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session(s"table$table")
    BenchHarness.warmup(spark)
    val results = BenchHarness.sweep(spark)
    val names   = BenchHarness.tableAlgos.map(_.name)
    table match {
      case "III" => println(TableFormat.tableIII(results, names))
      case "IV"  => println(TableFormat.tableIV(results, names))
      case "V"   => println(TableFormat.tableV(results, names))
    }
    spark.stop()
  }
}

/** Table III: runtimes in seconds. */
object TableIIIJob extends SweepJob("III")

/** Table IV: maximum space used. */
object TableIVJob extends SweepJob("IV")

/** Table V: total data written. */
object TableVJob extends SweepJob("V")

/** §VII-C: streets-of-Italy comparison (RC vs Cracker). */
object SparkVsDbJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("sparkVsDb")
    BenchHarness.warmup(spark)
    val stats = BenchHarness.prepare(spark, DatasetCatalog.streets)
    val rows = Seq(
      BenchHarness.runOne(stats, "Streets", RandomisedContraction(), seed = 3L),
      BenchHarness.runOne(stats, "Streets", Cracker, seed = 3L),
    ).map(r => Seq(r.algo, r.status, f"${r.seconds}%.1f", r.rounds.toString))
    println(TableFormat.render(Seq("algo", "status", "seconds", "rounds"), rows))
    spark.stop()
  }
}
