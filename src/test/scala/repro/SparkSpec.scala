package repro

import org.apache.logging.log4j.Level
import org.apache.logging.log4j.core.config.Configurator
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled: the paper's database joins
  * hash-distributed tables by redistributing them on the join key, and at
  * test and bench scale most tables are under Spark's broadcast threshold,
  * so every join here runs as a shuffle join, as it would at the paper's
  * scale.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Shuffle partitions of this suite's queries. The tests' graphs are tiny
    * and iterative algorithms launch a few Spark jobs per round, so few
    * partitions keep each round's latency down.
    */
  protected def shufflePartitions: Int = 4

  /** The RDDs whose blocks Spark holds: the live tables of every tracker. */
  protected def cachedRdds(): Set[Int] = spark.sparkContext.getRDDStorageInfo.map(_.id).toSet

  /** The session's temp views: the SQL names of the live tables. */
  protected def views(): Set[String] = spark.catalog.listTables().collect().map(_.name).toSet

  override def beforeAll(): Unit = {
    super.beforeAll()
    spark.conf.set("spark.sql.shuffle.partitions", shufflePartitions.toLong)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    // `SpaceTracker.drop` unpersists a locally checkpointed RDD, and Spark
    // warns each time that it cannot be recomputed: the contract of a
    // dropped table, logged once per table by this logger.
    Configurator.setLevel("org.apache.spark.rdd.MapPartitionsRDD", Level.ERROR)
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
