(** Iterative Modulo Scheduling (Rau, MICRO'94) over a clusterised DDG —
    the compilation phase the paper defers to future work (§5), built
    here so the reproduction can {e validate} that the MII reported by
    HCA is actually achievable by a schedule.

    The scheduler takes a DDG and a CN per instruction.  Resources are
    the per-CN single issue slots and the shared DMA ports, tracked in a
    {!Mrt.t}; an edge between instructions on different CNs pays
    [params.copy_latency] extra cycles.

    An HCA result is scheduled through {!Lower.run}, not here directly:
    it schedules the {e expanded} DDG of {!Hca_core.Postprocess}, where
    every receive is a real instruction on its CN and the transport
    latency already sits on the producer->receive edge, so it runs with
    [copy_latency = 0].  The default of 1 serves hand-built graphs whose
    inter-CN edges carry no receive. *)

open Hca_ddg

type schedule = {
  ii : int;  (** achieved initiation interval *)
  cycle_of : int array;  (** issue cycle per instruction *)
  stages : int;  (** kernel-only software-pipeline stage count *)
  occupancy : float;
  backtracks : int;
}

type params = {
  copy_latency : int;  (** extra cycles on inter-CN edges (default 1) *)
  budget_ratio : int;  (** eviction budget per II attempt, x instructions *)
  max_ii : int;
}

val default_params : params

val run :
  ?params:params ->
  ddg:Ddg.t ->
  cn_of_instr:int array ->
  cns:int ->
  dma_ports:int ->
  start_ii:int ->
  unit ->
  (schedule, string) result
(** Climbs from [start_ii] until a schedule fits or [max_ii] is hit. *)

val validate :
  ddg:Ddg.t ->
  cn_of_instr:int array ->
  copy_latency:int ->
  schedule ->
  (unit, string) result
(** Re-checks every dependence [start(v) >= start(u) + lat - ii*dist]
    and every resource column — the schedule analogue of the coherency
    checker. *)
