package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{Column, DataFrame, SparkInternals, SparkSession}
import org.apache.spark.sql.functions._
import repro.gf.{Gf64, GfFunctions}
import repro.graph.{LocalUnionFind, SpaceTracker}
import repro.harness.BenchHarness
import scala.collection.mutable
import scala.util.control.NonFatal

/** Benchmark driver: one workload in one local Spark session.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--out <dir>]
  * Main --workload <name> --check-bad [--out <dir>]
  * }}}
  *
  * Set-up builds the workload's input from `--seed`, prepares it with
  * `BenchHarness.prepare`, builds the union-find oracle and runs one
  * warm-up labelling, which counts as set-up. It then labels the graph through
  * `CcAlgorithm.run` for `--seconds`, at least three times, and checks
  * every labelling as a partition against union-find. With `--trace 0` it prints
  * the end-to-end metrics; with `--trace 1` every second labelling runs with a
  * `SparkListener` and a `QueryExecutionListener` registered, and it prints
  * the per-layer metrics and writes spans and counters to
  * `<out>/trace-<workload>-seed<n>.json`. The last line of standard output
  * is the result as one JSON object.
  */
object Main {

  final case class Opts(workload: String = "", seed: Long = 1L, seconds: Double = 10.0,
                        trace: Boolean = false, tiny: Boolean = false,
                        checkBad: Boolean = false, out: String = "perfbench/out")

  private def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case Nil                         => o
    case "--workload" :: v :: rest   => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest       => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest    => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest      => parse(rest, o.copy(trace = v match {
                                          case "0" => false
                                          case "1" => true
                                          case _   => throw new IllegalArgumentException(s"--trace takes 0 or 1, not $v")
                                        }))
    case "--tiny" :: rest            => parse(rest, o.copy(tiny = true))
    case "--check-bad" :: rest       => parse(rest, o.copy(checkBad = true))
    case "--out" :: v :: rest        => parse(rest, o.copy(out = v))
    case other :: _                  => throw new IllegalArgumentException(s"unknown argument $other")
  }

  /** Local cores used: at most 4, so results from larger machines compare. */
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)

  /** The session the numbers depend on, pinned: 8 shuffle partitions as the
    * bench suites use, broadcast joins off as the tests run, adaptive query
    * execution on (Spark's default). Every result prints these settings.
    */
  def session(out: String): SparkSession = {
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", 8L)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.sql.adaptive.enabled", true)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$out/spark-local")
      .config("spark.sql.warehouse.dir", s"$out/warehouse")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    spark
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.filterNot(_.isNaN).sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Run `one(i)` for i = 0, 1, ... until `seconds` have passed and at
    * least `minRuns` runs are done.
    */
  private def repeatFor(seconds: Double, minRuns: Int)(one: Int => Unit): Unit = {
    val t0 = System.nanoTime()
    var i  = 0
    while (i < minRuns || (System.nanoTime() - t0) / 1e9 < seconds) { one(i); i += 1 }
  }

  /** The Dataset actions `SpaceTracker.materialize` performs. */
  private val MaterialiseActions = Seq("localCheckpoint", "rdd", "count")

  /** One labelling: wall times, space accounting, and what the trace saw. */
  final case class Sample(run: Int, traced: Boolean, rounds: Int, runS: Double, labelsS: Double,
                          checkS: Double, tracker: SpaceTracker, spark: Option[SparkCounts],
                          actions: Seq[Action]) {
    def labelS: Double = runS + labelsS
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args.toList)
    val w    = Workloads.byName(opts.workload)
    Files.createDirectories(Paths.get(opts.out))
    val spark = session(opts.out)
    GfFunctions.ensureRegistered(spark)
    val sessionS = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    val ok =
      try if (opts.checkBad) checkBad(spark, w, opts) else { bench(spark, w, opts, sessionS); true }
      finally spark.stop()
    sys.exit(if (ok) 0 else 1)
  }

  private def edgesOf(df: DataFrame): Seq[(Long, Long)] =
    df.collect().toSeq.map(r => (r.getLong(0), r.getLong(1)))

  /** Generate and prepare the workload graph; returns (stats, gen s, prepare s). */
  private def prepare(spark: SparkSession, w: Workload, opts: Opts, spans: Spans) = {
    val (raw, genS) = spans("datasets.gen", parent = "setup") {
      val df = w.input(spark, opts.seed, opts.tiny).localCheckpoint(true)
      df.count()
      df
    }
    val (stats, prepS) = spans("harness.prepare", parent = "setup")(BenchHarness.prepare(spark, _ => raw))
    (stats, genS, prepS)
  }

  /** The partition check must reject a labelling with two components merged
    * and one with a vertex missing, and accept the algorithm's own.
    */
  private def checkBad(spark: SparkSession, w: Workload, opts: Opts): Boolean = {
    val (stats, _, _) = prepare(spark, w, opts.copy(tiny = true), new Spans(false))
    val expected      = LocalUnionFind.fromEdges(edgesOf(stats.edges)).minLabels
    val good          = edgesOf(w.algo.run(stats.edges, w.runSeed).labels)
    val verdicts = Seq(
      "own labelling"        -> (PartitionCheck.mismatch(good, expected), false),
      "two classes merged"   -> (PartitionCheck.mismatch(PartitionCheck.mergeTwo(good), expected), true),
      "one vertex unlabelled" -> (PartitionCheck.mismatch(good.tail, expected), true))
    verdicts.foreach { case (what, (res, _)) => println(s"check-bad: $what -> ${res.getOrElse("accepted")}") }
    val ok = verdicts.forall { case (_, (res, shouldFail)) => res.isDefined == shouldFail }
    println(s"check-bad: ${if (ok) "ok" else "FAILED"}")
    ok
  }

  private def bench(spark: SparkSession, w: Workload, opts: Opts, sessionS: Double): Unit = {
    val spans = new Spans(opts.trace)
    val sc    = spark.sparkContext
    val preps = (1 to 3).map(_ => prepare(spark, w, opts, spans))
    val stats = preps.last._1
    val expected = LocalUnionFind.fromEdges(edgesOf(stats.edges)).minLabels
    require(expected.size.toLong == stats.vertices, "oracle and BenchHarness.prepare disagree on |V|")

    val counters = new SparkCounters
    val actions  = new ActionLog
    var listening = false
    def drain(): Unit = if (listening) SparkInternals.drainListenerBus(sc)
    def listen(on: Boolean): Unit = if (on != listening) {
      if (on) { sc.addSparkListener(counters); spark.listenerManager.register(actions) }
      else { spark.listenerManager.unregister(actions); sc.removeSparkListener(counters) }
      listening = on
    }

    var attempted = 0
    val failures  = mutable.ArrayBuffer.empty[String]
    val samples   = mutable.ArrayBuffer.empty[Sample]

    /** Label once, time it, check it; record a failure instead of a sample. */
    def label(run: Int): Option[Sample] = spans("labelling", run, if (run < 0) "warmup" else "") {
      attempted += 1
      val tracker = new SpaceTracker(capRows = BenchHarness.capRows(stats.rows), algoName = w.algo.name)
      try {
        drain(); actions.take()
        val before           = counters.snapshot
        val (cc, runS)       = spans("core.run", run, "labelling")(w.algo.run(stats.edges, tracker, w.runSeed))
        drain()
        val runActions       = actions.take()
        val (labels, labelsS) = spans("core.labels", run, "labelling")(cc.labels.localCheckpoint(true))
        drain()
        val sparkCounts      = if (listening) Some(counters.snapshot - before) else None
        actions.take()
        val (bad, checkS)    = spans("oracle.check", run, "labelling")(
          PartitionCheck.mismatch(edgesOf(labels), expected))
        bad match {
          case Some(why) => failures += s"run $run: wrong partition: $why"; None
          case None      => Some(Sample(run, listening, cc.rounds, runS, labelsS, checkS, tracker,
                                        sparkCounts, runActions))
        }
      } catch {
        case NonFatal(e) => failures += s"run $run: ${e.getClass.getSimpleName}: ${e.getMessage}"; None
      }
    }._1

    val (_, warmS) = spans("warmup", parent = "setup")(label(-1))
    val setupS = sessionS + median(preps.map(p => p._2 + p._3)) + warmS

    // A traced run alternates traced and untraced labellings, traced first.
    // The JVM is still warming up, so the earlier, traced labelling is the
    // slower one and their difference is an upper bound on tracing overhead.
    repeatFor(opts.seconds, minRuns = 3) { run =>
      listen(opts.trace && run % 2 == 0)
      label(run).foreach(samples += _)
    }
    listen(false)

    val untraced = samples.filterNot(_.traced).toSeq
    val traced   = samples.filter(_.traced).toSeq
    def med(ss: Seq[Sample])(f: Sample => Double): Double = median(ss.map(f))
    val rows = stats.rows.toDouble

    val metrics: Seq[(String, Double, String)] = if (!opts.trace) {
      Seq(
        ("setup_s", setupS, "s"),
        ("label_s", med(untraced)(_.labelS), "s"),
        ("rounds", med(untraced)(_.rounds.toDouble), "count"),
        ("max_live_ratio", med(untraced)(_.tracker.maxLiveRows / rows), "ratio"),
        ("written_ratio", med(untraced)(_.tracker.totalWrittenRows / rows), "ratio"))
    } else {
      val gf = gfProbes(spark, spans)
      def spark_(f: SparkCounts => Double): Sample => Double = s => s.spark.map(f).getOrElse(Double.NaN)
      def actN(kinds: String*)(s: Sample): Double = s.actions.count(a => kinds.contains(a.funcName)).toDouble
      def actS(kinds: String*)(s: Sample): Double =
        s.actions.filter(a => kinds.contains(a.funcName)).map(_.nanos).sum / 1e9
      Seq(
        ("datasets.gen_s", median(preps.map(_._2)), "s"),
        ("harness.prepare_s", median(preps.map(_._3)), "s"),
        ("oracle.check_s", med(traced)(_.checkS), "s"),
        ("core.samples", traced.size.toDouble, "count"),
        ("core.run_s", med(traced)(_.runS), "s"),
        ("core.labels_s", med(traced)(_.labelsS), "s"),
        ("core.s_per_round", med(traced)(s => s.labelS / s.rounds), "s"),
        ("spark.jobs", med(traced)(spark_(_.jobs.toDouble)), "count"),
        ("spark.jobs_per_round", med(traced)(s => spark_(_.jobs.toDouble)(s) / s.rounds), "count"),
        ("spark.stages", med(traced)(spark_(_.stages.toDouble)), "count"),
        ("spark.tasks", med(traced)(spark_(_.tasks.toDouble)), "count"),
        ("spark.task_s", med(traced)(spark_(_.taskMs / 1e3)), "s"),
        ("spark.busy_share", med(traced)(s => spark_(_.taskMs / 1e3)(s) / (s.labelS * cores)), "share"),
        ("spark.gc_s", med(traced)(spark_(_.gcMs / 1e3)), "s"),
        ("spark.shuffle_write_mb", med(traced)(spark_(_.shuffleWriteBytes / 1e6)), "MB"),
        ("spark.shuffle_read_mb", med(traced)(spark_(_.shuffleReadBytes / 1e6)), "MB"),
        ("graph.checkpoint_n", med(traced)(actN("localCheckpoint")), "count"),
        ("graph.checkpoint_s", med(traced)(actS("localCheckpoint")), "s"),
        ("graph.rdd_n", med(traced)(actN("rdd")), "count"),
        ("graph.rdd_s", med(traced)(actS("rdd")), "s"),
        ("graph.count_n", med(traced)(actN("count")), "count"),
        ("graph.count_s", med(traced)(actS("count")), "s"),
        ("graph.covered_share", med(traced)(s => actS(MaterialiseActions: _*)(s) / s.runS), "share"),
        ("graph.uncovered_s", med(traced)(s => s.runS - actS(MaterialiseActions: _*)(s)), "s"),
        ("graph.rows_written", med(traced)(_.tracker.totalWrittenRows.toDouble), "count"),
        ("graph.max_live_rows", med(traced)(_.tracker.maxLiveRows.toDouble), "count"),
        ("graph.mean_shrink", med(traced)(s => meanShrink(s.tracker.roundEdgeRows)), "ratio"),
        ("gf.axb_ns", gf("axb"), "ns"),
        ("gf.expr_ns_per_row", gf("expr"), "ns"),
        ("gf.plain_ns_per_row", gf("plain"), "ns"),
        ("trace.overhead_s", med(traced)(_.labelS) - med(untraced)(_.labelS), "s"))
    }

    val settingsMap = Map(
      "workload" -> w.name, "algorithm" -> w.algo.name, "seed" -> opts.seed, "run_seeds" -> Seq(w.runSeed),
      "tiny" -> opts.tiny, "master" -> spark.sparkContext.master, "cores" -> cores,
      "spark.sql.shuffle.partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "spark.sql.autoBroadcastJoinThreshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "spark.sql.adaptive.enabled" -> spark.conf.get("spark.sql.adaptive.enabled"),
      "spark_version" -> spark.version, "jvm_version" -> System.getProperty("java.version"),
      "jvm_flags" -> ManagementFactory.getRuntimeMXBean.getInputArguments.toArray.toSeq
        .filter(a => a.toString.startsWith("-X")),
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
      "input_rows" -> stats.rows, "vertices" -> stats.vertices, "components" -> stats.components,
      "seconds" -> opts.seconds, "trace" -> opts.trace)
    println(s"# settings ${Json(settingsMap)}")
    failures.foreach(f => println(s"# FAILED $f"))
    metrics.foreach { case (k, v, unit) => println(f"$k%-24s $v%14.6f $unit") }
    val failedShare = failures.size.toDouble / attempted
    println(f"${"failed_share"}%-24s $failedShare%14.6f share (${failures.size} of $attempted labellings)")
    println(s"# samples: ${untraced.size} untraced, ${traced.size} traced; labelling times (s): " +
      samples.map(s => f"${s.labelS}%.3f").mkString(" "))
    if (opts.trace) {
      val value = metrics.map(m => m._1 -> m._2).toMap
      println(f"# the localCheckpoint, rdd and count actions cover ${value("graph.covered_share") * 100}%.1f%% " +
        f"of core.run_s; tracing costs at most ${value("trace.overhead_s")}%.3f s per labelling")
      writeTrace(opts, w, settingsMap, spans, traced)
    }

    println(Json(mutable.LinkedHashMap(
      "correct" -> failures.isEmpty, "attempted" -> attempted, "failed" -> failures.size,
      "metrics" -> mutable.LinkedHashMap(metrics.map { case (k, v, unit) => k -> Map("value" -> v, "unit" -> unit) }: _*))))
  }

  /** Mean ratio of edge rows between consecutive rounds (γ of Theorem 1),
    * over the rounds that left edges behind.
    */
  def meanShrink(rows: Seq[Long]): Double = {
    val ratios = rows.zip(rows.drop(1)).collect { case (a, b) if a > 0 && b > 0 => b.toDouble / a }
    if (ratios.isEmpty) Double.NaN else ratios.sum / ratios.size
  }

  /** Cost of the GF(2^64) hash on the driver and as the `gf64_axb`
    * expression, against plain long arithmetic over the same rows.
    */
  private def gfProbes(spark: SparkSession, spans: Spans): Map[String, Double] = {
    val a  = 0x5DEECE66DL
    val b  = 0x2545F4914F6CDD1DL
    val r  = new java.util.SplittableRandom(7L)
    val xs = Array.fill(1 << 19)(r.nextLong())
    def driverPass(): Long = {
      var acc = 0L
      var i   = 0
      while (i < xs.length) { acc ^= Gf64.axb(a, xs(i), b); i += 1 }
      acc
    }
    val n = 1L << 21
    val x = xxhash64(col("id"))
    def rowsPass(name: String, e: Column): Double =
      spans(name, parent = "gf")(spark.range(n).select(bit_xor(e)).collect())._2 * 1e9 / n
    val axb   = (1 to 3).map(_ => spans("gf.axb", parent = "gf")(driverPass())._2 * 1e9 / xs.length)
    val expr  = (1 to 3).map(_ => rowsPass("gf.expr", call_function("gf64_axb", lit(a), x, lit(b))))
    val plain = (1 to 3).map(_ => rowsPass("gf.plain", x.bitwiseXOR(lit(a)).bitwiseXOR(lit(b))))
    Map("axb" -> median(axb), "expr" -> median(expr), "plain" -> median(plain))
  }

  private def writeTrace(opts: Opts, w: Workload, settings: Map[String, Any], spans: Spans,
                         traced: Seq[Sample]): Unit = {
    val spanRows = spans.recorded.map(s => mutable.LinkedHashMap(
      "name" -> s.name, "run" -> s.run, "parent" -> s.parent, "start_ms" -> s.startMs, "end_ms" -> s.endMs))
    val sampleRows = traced.map { s =>
      val c = s.spark.get
      mutable.LinkedHashMap("run" -> s.run, "rounds" -> s.rounds, "jobs" -> c.jobs, "stages" -> c.stages,
        "tasks" -> c.tasks, "task_ms" -> c.taskMs, "gc_ms" -> c.gcMs,
        "shuffle_write_bytes" -> c.shuffleWriteBytes, "shuffle_read_bytes" -> c.shuffleReadBytes,
        "rows_written" -> s.tracker.totalWrittenRows, "max_live_rows" -> s.tracker.maxLiveRows,
        "round_edge_rows" -> s.tracker.roundEdgeRows,
        "actions" -> s.actions.map(a => Map("func" -> a.funcName, "ns" -> a.nanos, "failed" -> a.failed)))
    }
    val path = Paths.get(opts.out, s"trace-${w.name}-seed${opts.seed}.json")
    Files.writeString(path, Json(mutable.LinkedHashMap(
      "settings" -> settings, "spans" -> spanRows, "samples" -> sampleRows)) + "\n")
    println(s"# trace written to $path")
  }
}
