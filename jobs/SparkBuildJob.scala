package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Pspc
import repro.exp.Experiments
import repro.graph.GraphGen
import repro.order.VertexOrder
import repro.spark.{SparkPspc, SparkQueries}

/** Distributed PSPC construction on Spark, timed against the threaded
  * build, runnable under spark-submit:
  *
  * {{{
  * spark-submit --class repro.jobs.SparkBuildJob repro.jar [nVertices] [avgDeg]
  * }}}
  */
object SparkBuildJob {
  def main(args: Array[String]): Unit = {
    val n = args.headOption.map(_.toInt).getOrElse(400)
    val avgDeg = args.lift(1).map(_.toDouble).getOrElse(8.0)
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("pspc-spark-build")
      .getOrCreate()
    try {
      val g = GraphGen.largestComponent(GraphGen.chungLu(n, avgDeg, 2.5, seed = 21))
      val order = VertexOrder.degreeOrder(g)
      val ((localIdx, _), localMs) =
        Experiments.timeMs(Pspc.build(g, order, threads = Experiments.MaxThreads))
      val (sparkIdx, sparkMs) = Experiments.timeMs(SparkPspc.build(spark, g, order))
      require(localIdx.canonical == sparkIdx.canonical, "Spark and threaded labels must agree")

      import spark.implicits._
      val rnd = new scala.util.Random(5)
      val pairs = Seq.fill(1000)((rnd.nextInt(g.n), rnd.nextInt(g.n))).distinct
      val rows = SparkQueries.evaluate(spark, sparkIdx, pairs.toDF("s", "t")).collect()
      for (r <- rows) {
        val (s, t) = (r.getInt(0), r.getInt(1))
        require((r.getInt(2), r.getLong(3)) == sparkIdx.query(s, t), s"Spark answer for ($s,$t) differs from query")
      }
      require(rows.length == pairs.count { case (s, t) => sparkIdx.query(s, t)._1 >= 0 },
              "Spark must answer every connected pair")

      println(f"graph |V|=${g.n} |E|=${g.m}")
      println(f"threaded build (${Experiments.MaxThreads}T): $localMs%.0f ms, entries=${localIdx.entryCount}")
      println(f"Spark build:         $sparkMs%.0f ms, entries=${sparkIdx.entryCount}")
      println(s"answered ${rows.length} batch queries from the broadcast index, all equal to query")
    } finally spark.stop()
  }
}
