(** A partial solution of the Space Exploration Engine: the node of the
    exploration space of Fig. 5.

    A state owns a placement map (problem node -> PG node), the copy
    flow routed so far, per-cluster demand accumulators, and the list of
    detour forwards the Route Allocator has injected.  Every move is
    applied to the state's own undo trail and rewound, so a state must
    not be moved from two domains at once; a successor ({!try_assign},
    {!commit_probe}) is a copy taken while the move is applied, so
    siblings in the beam never alias.  {!commit} keeps a move in place
    instead, and {!copy_into} copies into a state the search is done
    with: the allocation-free pair the SEE's beam step uses. *)

open Hca_ddg
open Hca_machine

type t

val create : ?backbone:(Pattern_graph.node_id * Pattern_graph.node_id) list -> Problem.t -> t
(** Fresh state with the port pseudo nodes already pinned to their PG
    nodes.  [backbone] arcs get their in-neighbour slots pre-committed
    ({!Hca_machine.Copy_flow.reserve_neighbor}): the leaf quads use a
    ring so that any value can always reach any CN by forwarding. *)

val problem : t -> Problem.t

val clone : t -> t
(** @raise Invalid_argument when a {!probe_force} is in flight. *)

(** {1 Placement} *)

val placement : t -> int -> Pattern_graph.node_id option

val is_complete : t -> bool

val try_assign :
  t ->
  node:int ->
  cluster:Pattern_graph.node_id ->
  ii:int ->
  target_ii:int ->
  weights:Cost.weights ->
  (t, string) result
(** [isAssignable] + move: checks the resource table of [cluster] under
    the capacity window [ii], routes the copies towards/from every
    already-placed neighbour of [node] (same-cluster neighbours need
    none), and returns the successor state with its cost updated.
    [target_ii] is the II the objective function aims at — usually the
    kernel's iniMII, which may be below the capacity window when the
    driver had to relax [ii] for feasibility.  Clone, then
    {!commit}: [t] itself is left as it was.  The first blocked arc
    fails the move with ["no communication pattern src->dst"].
    @raise Invalid_argument when a {!probe_force} is in flight. *)

val commit :
  t ->
  node:int ->
  cluster:Pattern_graph.node_id ->
  ii:int ->
  target_ii:int ->
  weights:Cost.weights ->
  (unit, string) result
(** {!try_assign}'s move applied to [t] itself: it runs on [t]'s own
    undo trail, is re-scored incrementally and then kept, so on [Ok]
    [t] is the successor, and no state is allocated; on [Error] (the
    same verdicts) [t] is rewound bit for bit.  The SEE commits a beam
    survivor into its parent this way once every other survivor of
    that parent has been copied out.
    @raise Invalid_argument when a {!probe_force} is in flight. *)

val copy_into : src:t -> dst:t -> unit
(** Overwrites [dst] with [src]'s solution, every cache included,
    reusing [dst]'s arrays: afterwards [dst] is {!debug_identical} to
    [clone src].  [dst] must come from [src]'s search (the two share
    its II window); the SEE recycles a beam state no survivor descends
    from this way.
    @raise Invalid_argument when they come from different searches or
    a probe is in flight on either. *)

val score_moves :
  t ->
  node:int ->
  clusters:int array ->
  ii:int ->
  target_ii:int ->
  weights:Cost.weights ->
  tail_of_region:int ->
  scores:float array ->
  int
(** Batched frontier scoring: evaluates the move of [node] to every
    cluster of [clusters] in one pass over the state's flat arrays,
    applying each move to [t]'s undo trail, scoring it and rewinding
    under one pooled arena.  [scores.(k)] receives the
    {!cost} the state would have after the move to [clusters.(k)] —
    including the SEE's region-tear penalty for [tail_of_region]
    remaining region nodes — or [nan] when the move is infeasible
    (non-regular target, resource table exhausted, or no communication
    pattern).  Returns the number of feasible moves.  Each score is
    bit-identical to {!try_assign}'s cost plus that penalty (property
    tested).  [t] comes back bit for bit, except that its per-cluster
    cost cache is left warm at [target_ii] — a cache no view exposes.
    @raise Invalid_argument when [node] is already assigned. *)

val probe_force :
  t ->
  node:int ->
  cluster:Pattern_graph.node_id ->
  ii:int ->
  ((Instr.id * Pattern_graph.node_id * Pattern_graph.node_id) list, string)
  result
(** The Route Allocator's forced move: like {!try_assign}, but a direct
    arc that cannot be added does not fail it — the blocked
    [(value, src, dst)] triples are returned, in routing order, for the
    Route Allocator to detour.  Resource exhaustion still fails, and
    then [t] is untouched.  On [Ok] the move is left applied to [t] so
    the detours can be routed on it ({!add_forward} /
    [Copy_flow.add_copy] under the open mark); finish with
    {!commit_probe} to keep the result and {!abort_force} to rewind.
    @raise Invalid_argument when a probe is already in flight. *)

val commit_probe : t -> target_ii:int -> weights:Cost.weights -> t
(** Materialises the in-flight {!probe_force} as a fresh successor
    state: a copy of [t] exactly as it stands (move, direct arcs and
    detours applied), re-scored from scratch with {!recompute_cost}.
    [t] still carries the probe; call {!abort_force} afterwards (the
    copy shares nothing mutable, so the rewind cannot disturb it).
    @raise Invalid_argument when no probe is in flight. *)

val abort_force : t -> unit
(** Rewinds the in-flight {!probe_force}, detours included, bit for
    bit.
    @raise Invalid_argument when none is in flight. *)

val add_forward : t -> value:Instr.id -> via:Pattern_graph.node_id -> unit
(** Route-Allocator hook: accounts one forwarding move (one ALU slot) on
    [via] and records it.  The caller checks capacity against its target
    II before committing. *)

val forwards : t -> (Instr.id * Pattern_graph.node_id) list
(** Detour forwards injected by the Route Allocator, newest first. *)

(** {1 Views} *)

val flow : t -> Copy_flow.t

val demand : t -> Pattern_graph.node_id -> Resource.t

val can_host_forward : t -> via:Pattern_graph.node_id -> ii:int -> bool
(** Would [via] still fit its resource table under the window [ii]
    after one extra forwarding ALU slot?  Exactly
    [Resource.fits ~demand:(add (demand t via) {alus = 1; ags = 0})]
    against [via]'s capacity, plus the regular-node check, evaluated on
    the flat demand arrays: the Route Allocator's BFS asks this per
    visited node and must not allocate records. *)

val cluster_nodes : t -> Pattern_graph.node_id -> int list
(** Problem nodes placed on a cluster, id ascending.  Derived from the
    placement array on demand (O(problem size)): only diagnostics read
    it, so states carry no reverse index for the probe loop to maintain,
    clone and rewind. *)

val summary : t -> ii:int -> Cost.summary

val cost : t -> float
(** Cached {!Cost.score} of the current partial solution, plus the
    accumulated search penalties ({!add_penalty}). *)

val add_penalty : t -> float -> unit
(** Permanently worsens this state's cost: used by the SEE for
    lookahead terms (e.g. region tearing) that the per-state summary
    cannot see. *)

val free_issue_slots : t -> cluster:Pattern_graph.node_id -> ii:int -> int
(** Remaining issue capacity of a cluster under the window [ii]. *)

val tear_deficit :
  t -> cluster:Pattern_graph.node_id -> ii:int -> tail_of_region:int -> int
(** [tail_of_region - 1 - free_issue_slots t ~cluster ~ii]: the SEE's
    region-tear lookahead, penalised when positive.  The one place both
    {!score_moves} and the SEE's materialised moves compute it, so it
    also narrows the II window (a positive deficit closes it on [ii]). *)

(** {1 II windows}

    Every state created by {!create} starts a search-wide window
    [(lo, hi)] = [(1, max_int)] that its copies share.  Each
    II-dependent test the move path makes under a capacity window [ii]
    — the resource-table check of every move and of every Route
    Allocator hop, and {!tear_deficit} — narrows it to the IIs at which
    the test would have gone the same way, so a search that reads the
    II only through these tests (and {!restrict_window}) makes the same
    moves at every II of the final window. *)

val window : t -> int * int
(** The window of the search [t] belongs to, as it stands. *)

val restrict_window : t -> lo:int -> hi:int -> unit
(** Narrows the search's window to its intersection with [[lo, hi]]:
    the hook for II-dependent decisions taken outside the move path. *)

val equal : t -> t -> bool
(** Structural identity of two partial solutions: same placement, same
    routed flow, same forwards, same carried cuts and bit-equal cost
    terms.  A test reference: the property suite uses it to check that
    the SEE's final beam holds no two identical states. *)

val debug_identical : t -> t -> bool
(** {!equal} plus every derived structure and incremental-cost cache —
    the property-test oracle for move round trips. *)

val recompute_cost : t -> target_ii:int -> weights:Cost.weights -> unit
(** From-scratch reference: rebuilds every per-cluster cost
    contribution and re-scores.  {!try_assign} and {!score_moves}
    instead refresh only the clusters a move touched; the two agree bit
    for bit (property tested). *)

val pp : Format.formatter -> t -> unit
