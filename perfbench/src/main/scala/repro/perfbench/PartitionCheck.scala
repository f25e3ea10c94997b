package repro.perfbench

import scala.collection.mutable

/** The benchmark's correctness check: a labelling must be the same partition
  * of the same vertices as union-find's. Labels are normalised to the
  * minimum vertex ID of their class, so the check needs no agreement on label
  * values, and a wrong partition with the right vertex and component counts
  * still fails.
  */
object PartitionCheck {

  /** `None` if `labels` (vertex, label) partitions exactly the vertices of
    * `expected` (vertex → minimum vertex of its component, as
    * `LocalUnionFind.minLabels` gives it); otherwise the first difference.
    */
  def mismatch(labels: Seq[(Long, Long)], expected: Map[Long, Long]): Option[String] = {
    val labelOf = mutable.LongMap.empty[Long]
    val minOf   = mutable.LongMap.empty[Long]
    val repeated = labels.find { case (v, r) =>
      val again = labelOf.contains(v)
      labelOf(v) = r
      minOf(r) = math.min(minOf.getOrElse(r, Long.MaxValue), v)
      again
    }
    repeated.map { case (v, _) => s"vertex $v is labelled twice" }
      .orElse(expected.keysIterator.find(v => !labelOf.contains(v)).map(v => s"vertex $v has no label"))
      .orElse(labelOf.keysIterator.find(v => !expected.contains(v)).map(v => s"vertex $v is not in the input"))
      .orElse(labelOf.iterator.collectFirst {
        case (v, r) if minOf(r) != expected(v) =>
          s"vertex $v is grouped with ${minOf(r)}, union-find groups it with ${expected(v)}"
      })
  }

  /** A copy of `labels` with the classes of two different labels merged
    * into one, as a deliberately wrong labelling.
    */
  def mergeTwo(labels: Seq[(Long, Long)]): Seq[(Long, Long)] = {
    val distinct = labels.iterator.map(_._2).distinct.take(2).toSeq
    require(distinct.size == 2, "merging needs a labelling with at least two classes")
    val Seq(keep, gone) = distinct
    labels.map { case (v, r) => (v, if (r == gone) keep else r) }
  }
}
