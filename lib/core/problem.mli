(** One single-level cluster-assignment subproblem (§4.1).

    A subproblem is fully described by a DDG, a Working Set, a
    constrained PG and an Inter-Level Interface.  This module folds the
    four into one search-ready graph:

    - every Working-Set instruction becomes a local node carrying its
      resource demand;
    - every PG input/output port becomes a *pinned* pseudo node with
      zero demand, pre-assigned to its special PG node;
    - values crossing the boundary become edges from input-port nodes /
      to output-port nodes, labelled with the *global* producing
      instruction so the copy flow always speaks in global value ids;
    - a value owed to an output port but not produced in the Working
      Set is a pass-through: a fresh *forward* node (one ALU slot — the
      move a cluster spends re-emitting the value) is synthesised
      between the input port holding the value and the output port.

    The same representation also hosts a whole-DDG, port-free problem
    (level 0, the RCP, and the flat view of the flat-ICA baseline and
    the exact oracle). *)

open Hca_ddg
open Hca_machine

type node = {
  id : int;
  demand : Resource.t;  (** zero for pinned port nodes *)
  pinned : Pattern_graph.node_id option;
  global : Instr.id option;
      (** original instruction; [None] for ports and forwards *)
  value : Instr.id;
      (** the global value this node produces / stands for; for a
          Working-Set node this is its own global id, for a forward
          node the forwarded value, for ports [-1] (ports hold many) *)
  label : string;
}

type edge = {
  src : int;
  dst : int;
  value : Instr.id;  (** global id of the flowing value *)
  latency : int;
  distance : int;
}

type t

(** {1 Construction} *)

val of_ddg :
  name:string -> ddg:Ddg.t -> pg:Pattern_graph.t -> ?max_in_ports:int -> unit -> t
(** Whole-graph problem over a port-free PG. *)

val flat : Machine_desc.t -> Ddg.t -> t
(** The flat (non-hierarchical) view of a whole machine: one PG node per
    CN carrying that CN's own resource table ({!Machine_desc.cn_table}),
    every CN reachable from every other, and only the per-CN port limit
    (the leaf's incoming-wire count) as a wiring constraint.  The flat
    ICA baseline searches this view and the exact oracle encodes it. *)

val of_working_set :
  name:string ->
  ddg:Ddg.t ->
  ws:Instr.id list ->
  pg:Pattern_graph.t ->
  ?max_in_ports:int ->
  unit ->
  (t, string) result
(** [pg] must already carry the ILI ports ({!Pattern_graph.with_ports}).
    Fails when a boundary value is not available on any input port or
    owed by an output port without a local producer or pass-through
    source — i.e. when the father broke inter-level coherence. *)

(** {1 Accessors} *)

val name : t -> string

val size : t -> int

val node : t -> int -> node

val nodes : t -> node array

val edges : t -> edge array

val succs : t -> int -> edge list

val preds : t -> int -> edge list

val pg : t -> Pattern_graph.t

val max_in_ports : t -> int

val free_nodes : t -> int list
(** Nodes the SEE must place (not pinned), in id order. *)

val forwards : t -> node list
(** The synthesised pass-through nodes. *)

val height : t -> int array
(** Longest latency-weighted intra-iteration path to any sink, the
    criticality key of the priority list ({!Hca_ddg.Graph_algo.S.height}
    on the subproblem graph). *)

val scc_of : t -> int array
(** Recurrence-circuit membership: nodes in the same non-trivial
    strongly connected component (over all edges, loop-carried included,
    {!Hca_ddg.Graph_algo.S.nontrivial_sccs}) share an id; nodes on no
    circuit get [-1].  Ids are only meaningful compared for equality.
    Cutting {e any} edge of a circuit across clusters stretches MIIRec
    by the copy latency, so both the cost function and the region
    clustering treat circuit edges as high-affinity. *)

val pp : Format.formatter -> t -> unit
