(** Pattern Graph (PG): the abstract, per-level view of the machine
    topology consumed by the Space Exploration Engine (§3).

    Each node embraces a set of computation nodes and carries their
    aggregated {!Resource.t}; an arc is a *potential* communication
    pattern.  Real patterns (arcs that carry at least one copy) are
    tracked separately by {!Copy_flow}, because the PG itself is
    immutable while the search mutates the flow.

    Beyond the regular cluster nodes, a PG for a nested subproblem is
    completed with *special nodes* (§4.1):

    - an {e input node} per wire entering from the father level, holding
      the list of values pumped in, with potential arcs towards every
      regular node (incoming values are broadcastable);
    - an {e output node} per wire leaving towards the father, holding
      the list of values owed, reachable from every regular node but
      accepting {b one} real in-arc only (the [outNode_MaxIn]
      constraint: MUX inputs have unary fan-in). *)

open Hca_ddg

type node_id = int

type kind =
  | Regular
  | In_port of { wire : int; values : Instr.id list }
      (** [wire] is the father-level wire index this port stands for. *)
  | Out_port of { wire : int; values : Instr.id list }

type node = {
  id : node_id;
  kind : kind;
  capacity : Resource.t;  (** zero for special nodes *)
}

type t

(** {1 Construction} *)

val complete : name:string -> capacities:Resource.t array -> max_in:int -> t
(** Fully connected cluster view (a DSPFabric level seen from above is a
    complete graph, Fig. 7).  [max_in] is the MUX capacity bounding the
    number of distinct real in-neighbours per node. *)

val of_adjacency :
  name:string ->
  capacities:Resource.t array ->
  max_in:int ->
  potential:(int * int) list ->
  t
(** Explicit potential-arc list [(src, dst)], for non-complete topologies
    such as the RCP ring. *)

val with_ports :
  t ->
  inputs:(int * Instr.id list) list ->
  outputs:(int * Instr.id list) list ->
  t
(** [with_ports pg ~inputs ~outputs] appends special nodes for the given
    [(wire, values)] lists.  Regular node ids are preserved.
    @raise Invalid_argument if [pg] already has ports. *)

(** {1 Accessors} *)

val name : t -> string

val size : t -> int
(** Total nodes, special ones included. *)

val node : t -> node_id -> node

val nodes : t -> node array

val regular_nodes : t -> node list

val in_ports : t -> node list

val out_ports : t -> node list

val max_in : t -> int

val is_potential : t -> src:node_id -> dst:node_id -> bool

val potential_preds : t -> node_id -> node_id list

val potential_succs : t -> node_id -> node_id list

val is_regular : t -> node_id -> bool

val port_values : node -> Instr.id list
(** Values held by a special node ([[]] for regular nodes). *)

val pp : Format.formatter -> t -> unit
