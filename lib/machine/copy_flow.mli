(** Mutable inter-cluster copy state over a {!Pattern_graph.t}.

    The search turns *potential* PG arcs into *real* communication
    patterns by routing values over them; this module owns that state
    and enforces the reconfiguration constraints of §4.1:

    - a regular node accepts at most [max_in] distinct real
      in-neighbours (the MUX capacity of the level);
    - an output port accepts exactly one real in-neighbour
      ([outNode_MaxIn]: MUX inputs have unary fan-in);
    - at most [max_in_ports] distinct input ports may feed the level
      (the leaf crossbar admits only [K] of the wires coming down from
      level 1).

    The potential matrix is sparse, so the flow numbers the potential
    arcs in ascending [(src, dst)] order and keeps all mutable per-arc
    state in flat arrays at those compact indices (a [src * n + dst]
    lookup table resolves a pair to its arc in O(1)); the speculation
    trail is a preallocated int arena, so the SEE's probe loop neither
    chases nested arrays nor allocates per move.  Snapshots
    ({!snapshot}, {!snapshot_into}) copy the per-arc slots — not an
    [n * n] matrix — and the immutable per-arc value lists stay shared;
    the beam search takes one per beam survivor it cannot commit in
    place. *)

open Hca_ddg

type t

val create : ?max_in_ports:int -> Pattern_graph.t -> t
(** [max_in_ports] defaults to unlimited. *)

val reserve_neighbor : t -> src:Pattern_graph.node_id -> dst:Pattern_graph.node_id -> unit
(** Pre-commits the in-neighbour slot for a backbone arc: [can_add]
    treats the pair as already connected, so routing along it is always
    possible even when [dst]'s in-degree budget is otherwise spoken for.
    A reserved arc that ends up carrying no value costs nothing at
    mapping time (the Mapper only wires real arcs) — the reservation
    only shapes the search.  Used to pin a ring backbone on the leaf
    quads, whose two-input CNs deadlock without a planned topology.
    @raise Invalid_argument when the arc is not potential. *)

val pg : t -> Pattern_graph.t

val snapshot : t -> t
(** An independent copy of the flow exactly as it stands.  Legal while
    a speculation mark is outstanding: the copy captures the mutations
    made since the mark and starts with a fresh trail and no marks.
    Safe because the per-arc value lists are immutable, so the original
    popping them on {!undo_to_mark} never disturbs the copy.  The Route
    Allocator's commit copies a probed state this way: apply the move
    on the trail, snapshot, rewind. *)

val snapshot_into : src:t -> dst:t -> unit
(** {!snapshot} written into [dst]'s own slots instead of fresh ones:
    afterwards [dst] routes exactly [src]'s flow, with no marks.  Both
    flows must share their origin ([dst] a {!snapshot} of [src], or
    both of a common ancestor): that is how the SEE recycles the flow
    of a beam state it no longer needs.
    @raise Invalid_argument when they do not. *)

(** {1 Mutation} *)

val can_add : t -> src:Pattern_graph.node_id -> dst:Pattern_graph.node_id -> bool
(** Would routing a value on [(src, dst)] respect the potential matrix
    and all in-neighbour constraints? *)

(** {2 Indexed potential-successor view}

    The Route Allocator's BFS scans a node's potential out-arcs once
    per frontier expansion, tens of thousands of times per kernel:
    these accessors walk the compact per-node arc arrays directly —
    no list is built, no [(src, dst)] pair is re-resolved. *)

val out_arc_count : t -> Pattern_graph.node_id -> int
(** Number of potential out-arcs of a node. *)

val out_arc_dst : t -> Pattern_graph.node_id -> int -> Pattern_graph.node_id
(** Destination of the [k]-th potential out-arc (ascending by
    destination id — the same order [Pattern_graph.potential_succs]
    yields). *)

val can_add_out : t -> Pattern_graph.node_id -> int -> bool
(** [can_add] for the [k]-th potential out-arc of a node, without the
    pair-to-arc lookup. *)

val add_copy :
  t -> src:Pattern_graph.node_id -> dst:Pattern_graph.node_id -> Instr.id -> unit
(** Routes one value.  Idempotent per [(src, dst, value)].
    @raise Invalid_argument when [can_add] is false. *)

(** {1 Speculation trail}

    The SEE probes candidate moves by mutating one scratch flow in
    place instead of cloning per candidate: [push_mark] opens a trail,
    every subsequent {!add_copy} logs its mutation, and [undo_to_mark]
    reverses them exactly, leaving the flow bit-identical to the state
    at the mark (the round trip is property-tested).  Marks nest
    LIFO. *)

type mark [@@immediate]

val no_mark : mark
(** Never returned by {!push_mark}: a placeholder for preallocated
    slots. *)

val push_mark : t -> mark
(** Starts (or deepens) trail recording. *)

val undo_to_mark : t -> mark -> unit
(** Reverts every mutation since the matching {!push_mark} and closes
    that mark.
    @raise Invalid_argument when no mark is outstanding. *)

val drop_mark : t -> mark -> unit
(** Closes the matching {!push_mark} and keeps every mutation since it:
    the commit twin of {!undo_to_mark}.  An enclosing mark, if any,
    still reverses them.
    @raise Invalid_argument when no mark is outstanding. *)

val equal : t -> t -> bool
(** Structural equality of the routed flows (same PG size, same value
    lists on every arc).  The aggregate counters are functions of the
    value matrix, so they are not compared beyond the cheap O(1)
    prefilters. *)

(** {1 Counters}

    The O(1) reads the search's cost function makes per move; the list
    queries live on the {!Frozen} view. *)

val copy_count : t -> int
(** Total value-hops routed. *)

val used_in_ports_count : t -> int
(** Input ports with at least one outgoing copy, in O(1): the flow
    maintains its aggregate counters incrementally so the cost
    function's per-move queries never re-walk the copy matrix. *)

val real_in_count : t -> Pattern_graph.node_id -> int
(** Distinct real in-neighbours of a node, in O(1). *)

val in_pressure : t -> Pattern_graph.node_id -> int
(** Values entering a node: each needs a receive slot. *)

val out_pressure : t -> Pattern_graph.node_id -> int
(** Distinct values leaving a node (a broadcast counts once, the paper's
    Mapper merges broadcast copies onto one wire). *)

(** {1 Frozen view}

    What the readers after the search need of a committed flow: the
    real arcs with their values, and nothing of the search machinery
    (potential-arc tables, counters, trail).  The Mapper freezes the
    flow it lowers, and the hierarchy keeps that view in its committed
    record; the flat baselines read one too. *)

module Frozen : sig
  type t

  val copies : t -> src:Pattern_graph.node_id -> dst:Pattern_graph.node_id -> Instr.id list
  (** Values on the arc, in insertion order ([[]] when the arc carries
      none). *)

  val real_in_neighbors : t -> Pattern_graph.node_id -> Pattern_graph.node_id list
  (** Ascending. *)

  val real_out_neighbors : t -> Pattern_graph.node_id -> Pattern_graph.node_id list
  (** Ascending. *)

  val arcs : t -> (Pattern_graph.node_id * Pattern_graph.node_id * Instr.id list) list
  (** All real arcs with their value lists, ordered by [(src, dst)]. *)

  val copy_count : t -> int
  (** Total value-hops, as {!Copy_flow.copy_count} of the frozen flow. *)

  val in_pressure : t -> Pattern_graph.node_id -> int
  (** Values entering a node, as {!Copy_flow.in_pressure} of the
      frozen flow. *)

  val remove_copy :
    t -> src:Pattern_graph.node_id -> dst:Pattern_graph.node_id -> Instr.id -> t
  (** Fault injection for the coherency negative tests: the view with
      one value un-routed from one arc (an arc left empty disappears).
      @raise Invalid_argument when the value is not on the arc. *)
end

val freeze : t -> Frozen.t
(** The flow's real arcs as they stand; later mutations of [t] do not
    show through. *)
