(** The Hierarchical Cluster Assignment driver (§4).

    Starting at level 0, each subproblem — identified by its path of
    nesting indexes, Fig. 8 (a) — maps its Working Set onto the PG of
    its level with the SEE, lowers the resulting copy flow onto the
    level's wires with the Mapper, and spawns one child subproblem per
    cluster set with the ILI the Mapper produced.  The recursion bottoms
    out at the leaf crossbar, where the PG nodes are single computation
    nodes and the placement becomes final. *)

open Hca_ddg
open Hca_machine

type subresult = {
  path : int list;  (** nesting indexes, [[]] for the root problem *)
  pg : Pattern_graph.t;  (** the level's PG with this subproblem's ports *)
  global : Instr.id array;
      (** per problem node: its instruction, [-1] for ports and
          pass-through forwards *)
  value : Instr.id array;
      (** per problem node: the value it stands for ({!Problem.node}) *)
  pin : Pattern_graph.node_id array;
      (** per problem node: the port it is pinned to, [-1] when the SEE
          placed it *)
  place : Pattern_graph.node_id array;
      (** per problem node: its PG node in the committed solution — the
          SEE's best state, or one of its beam alternatives when a child
          subproblem of the best state proved infeasible and the driver
          backtracked *)
  detours : (Instr.id * Pattern_graph.node_id) list;
      (** the committed state's Route-Allocator forwards, newest first *)
  flow : Copy_flow.Frozen.t;  (** its copy flow, as the Mapper lowered it *)
  model : Machine_model.t;  (** the Mapper's wires *)
  max_wire_load : int;
  children : subresult option array;
      (** one slot per PG regular node; [None] when nothing was assigned
          to — or flows through — that cluster set (always all-[None] at
          the leaf) *)
}
(** The committed record of one subproblem: exactly what the readers
    after the search use (harvest, {!recv_count}, [Metrics],
    [Coherency], [Topology], [hca explain]).  The problem's edges, the
    SEE's state with its cost caches and the rest of its beam are not
    kept; {!Problem.of_working_set} on the [global] ids, [pg] and the
    level's [max_in_ports] rebuilds the problem. *)

type t = {
  fabric : Dspfabric.t;
  ddg : Ddg.t;
  ii : int;  (** target II the assignment was built against *)
  root : subresult;
  cn_of_instr : int array;  (** instruction id -> absolute CN index *)
  forwards : (Instr.id * int) list;
      (** routed pass-through moves: (value, absolute CN executing it) *)
  explored : int;  (** partial solutions generated across all subproblems *)
  routed : int;  (** SEE moves that needed the Route Allocator *)
}

(** {1 Cross-probe subproblem memoization}

    A subproblem's result is a pure function of (kernel, machine,
    level, path, working set, ILI, II window, target II,
    configuration).  Inter-level backtracking re-solves sibling
    subtrees whose inputs did not change between two beam alternatives
    of their parent; a shared cache short-circuits those
    recomputations.  A hit returns the very result the miss computed
    and replays its explored/routed deltas, so a memoised run is
    bit-identical to a memo-off run (property tested).  The cache is
    lock-striped: keys embed the II, so the concurrent II probes of
    [Report.run ~jobs] never contend on the same key. *)

type stats = {
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable reused_subproblems : int;
      (** subproblems short-circuited transitively: a hit on a subtree
          of [n] solved subproblems counts [n] *)
}

val create_stats : unit -> stats

type cache

val create_cache : unit -> cache
(** Safe to share across domains, II probes, kernels and machines: the
    key embeds the kernel name and {!Ddg.content_id}, the total
    {!Dspfabric.id}, the II window and the configuration, so unrelated
    requests can pool one cache without colliding, even when two
    different kernels share a name. *)

type snapshot
(** The cache's payload detached from its locks: plain data, safe to
    [Marshal] — the compile service persists one of these per store
    file so warm caches survive daemon restarts. *)

val snapshot : cache -> snapshot
(** Atomic per stripe; concurrent solvers may keep inserting. *)

val restore : snapshot -> cache
(** A fresh cache holding exactly the snapshot's entries.  Solutions
    served from a restored cache are bit-identical to the run that
    populated it (same entries, same replayed counters). *)

val snapshot_length : snapshot -> int

val cache_length : cache -> int
(** Entries currently stored, over all stripes. *)

(** {1 Reuse across II probes} *)

type windows
(** One run's set-level search table: per set-level subproblem (level,
    path, working set, ILI), the problem it built and the successful
    SEE outcomes with their {!See.outcome.window}s.  A probe whose
    set-level capacity window falls inside a stored window reuses that
    outcome — the very one a search would return — instead of
    searching, and counts [see.window_hit].  Domain-safe. *)

val create_windows : unit -> windows
(** A table for the probes of {e one} (kernel, machine, configuration,
    target II): its keys do not hold them. *)

val solve :
  ?config:Config.t ->
  ?target_ii:int ->
  ?cache:cache ->
  ?windows:windows ->
  ?stats:stats ->
  Dspfabric.t ->
  Ddg.t ->
  ii:int ->
  (t, string) result
(** One full HCA pass with capacity window [ii] (cost functions aim at
    [target_ii], default [ii]).  Fails with the path and node of the
    first subproblem that admits no legal clusterisation.  [cache]
    memoises subproblem solutions across calls; [windows] reuses
    set-level searches across the calls of one run; [stats] accumulates
    the hit/miss counters of this call.  Neither changes the result. *)

val subresults : t -> subresult list
(** Pre-order walk of the problem tree. *)

val leaf_of_path : t -> int list -> subresult option

val cn_count : t -> int -> int
(** Instructions (forwards included) placed on an absolute CN. *)

val recv_count : t -> int -> int
(** Distinct values a CN receives — each costs one receive primitive. *)
