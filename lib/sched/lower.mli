(** The one lowering of an HCA result to a modulo schedule, shared by
    [hca sched], [hca simulate], the bench, the fuzzer, the tests and
    [examples/sched_pipeline.ml].

    It closes HCA as §4.1 describes: {!Hca_core.Postprocess.expand}
    makes every receive (and every routed forward) a real DDG node on
    its CN, with the transport latency on the producer->receive edge;
    {!Modulo.run} then schedules that expanded graph from the final MII
    upward, on the result machine's CNs and DMA ports.  The transport
    cost already sits on the edges, so inter-CN edges pay no extra
    {!copy_latency}. *)

type t = {
  expanded : Hca_core.Postprocess.t;
  schedule : (Modulo.schedule, string) result;
}

val copy_latency : int
(** [0]: pass it to {!Modulo.validate} and {!Regpress.analyse} on
    [expanded]. *)

val run : Hca_core.Hierarchy.t -> final_mii:int -> t
