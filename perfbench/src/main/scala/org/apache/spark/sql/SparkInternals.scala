package org.apache.spark.sql

import org.apache.spark.SparkContext

/** The package-private Spark member the benchmark's tracing uses. */
object SparkInternals {

  /** Wait until every queued listener event has been delivered, so counters
    * read right after an action include that action.
    */
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
