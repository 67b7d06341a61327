(** The Mapper (§3): lowers the copy flow of a solved subproblem from
    the Pattern-Graph abstraction onto the physical wires of the level's
    {!Hca_machine.Machine_model}, and produces the Inter-Level Interface
    of every child subproblem (§4.1, Fig. 9).

    The lowering follows the paper's policy: the connections gluing this
    level to its father are pre-allocated first (Fig. 11) and withdrawn
    from the copy-distribution budget; a broadcast value is merged onto
    a single source wire; the remaining copies are spread over as many
    wires as available to keep the per-wire pressure — hence the II —
    low. *)

open Hca_machine

type result = {
  flow : Copy_flow.Frozen.t;  (** the copy flow this lowering read *)
  model : Machine_model.t;
  child_ilis : Ili.t array;  (** indexed by regular PG node id *)
  max_wire_load : int;
}

val map :
  ?consolidate:bool ->
  ?wire_cap:int ->
  ?color:(Hca_ddg.Instr.id -> int) ->
  problem:Problem.t ->
  state:State.t ->
  in_capacity:int ->
  out_capacity:int ->
  unit ->
  (result, string) Stdlib.result
(** Lowers the level's copy flow onto its wires.  With
    [consolidate = false] (default, the set levels) copies are spread
    over as many wires as available to keep per-wire pressure low, as
    Fig. 9 shows; with [consolidate = true] (the level feeding the leaf
    quads, where each new wire burns one of a CN's two input slots)
    values are packed onto as few wires as possible instead.

    [color] restricts which values may share a wire (default: all): a
    wire's payload later funnels through one downstream sub-cluster, so
    the driver colours values by producer regions sized to that
    sub-cluster and the Mapper never mixes colours on a wire.

    [wire_cap] bounds the payload of a single wire (default unlimited).
    The driver passes its capacity II: a wire serialises one value per
    cycle, so a fatter wire could not meet the II anyway — and since the
    whole payload of a wire must leave one child cluster (unary fan-in
    of the child's output port), the cap also keeps the forced
    co-location downstream within one cluster's issue budget.

    Fails when the wire budget cannot carry the flow (e.g. more distinct
    in-sources than input wires after the pre-allocations) — the driver
    then retries at a larger II or reports the architecture as too
    narrow, which is exactly the §5 bandwidth-degradation effect. *)
