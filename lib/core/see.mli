(** The Space Exploration Engine (§3): a local-scope beam search that
    maps the nodes of one subproblem onto the nodes of its PG.

    At each step the SEE picks the next node from the priority list of
    unassigned ones, evaluates the assignment [n -> c] for every
    candidate cluster with the objective function, keeps the best
    [candidate_width] moves per partial solution (candidate filter),
    and prunes the resulting frontier back to [beam_width] partial
    solutions (node filter, Fig. 5).  When a partial solution has no
    candidate at all, the no-candidates action invokes the Route
    Allocator before dropping it.

    A step allocates no state once the beam is full: children are
    flat (parent, cluster, cost) records in buffers sized once per
    search, both cuts select into caller-owned index arrays, and each
    survivor is committed into its parent ({!State.commit}) or into a
    frontier state no survivor descends from ({!State.copy_into}). *)

type outcome = {
  state : State.t;  (** best complete solution found *)
  alternatives : State.t list;
      (** the rest of the final frontier, best first: complete solutions
          the node filter kept alive.  The hierarchical driver falls
          back on them when a child subproblem of the best solution
          turns out to be infeasible — inter-level backtracking. *)
  explored : int;  (** partial solutions generated (scaling metric) *)
  routed : int;  (** moves that needed the Route Allocator *)
  window : int * int;
      (** [(lo, hi)], holding the [ii] searched: solving again at any
          capacity window in it gives this very outcome — bit-identical
          states, [explored] and [routed] (property tested).  The SEE
          reads the II only through the resource-table checks of its
          moves and Route-Allocator hops, the region-tear deficit and
          the Affinity regions' capacity, and each one narrows the
          window to where it would have gone the same way. *)
}

type reason =
  | No_candidates of { node : string; detail : string }
      (** no cluster takes [node] (its label) from any partial solution
          of the frontier; [detail] is the message past the II: the
          PG's shape and, for the frontier's best state, each cluster's
          verdict *)
  | Empty_frontier

type failure = {
  window : int * int;
      (** [(lo, hi)], holding the [ii] searched: at any capacity window
          in it the search fails the same way, with the same {!message}
          but for the II it names.  Read after the diagnosis, whose
          moves narrow it like the search's own. *)
  problem : string;  (** the subproblem's name *)
  reason : reason;
}

val message : failure -> ii:int -> string
(** The failure as text, at a capacity window [ii] of its window:
    ["<problem>: no candidates for node <label> at II=<ii><detail>"]. *)

val solve :
  ?config:Config.t ->
  ?target_ii:int ->
  ?backbone:(Hca_machine.Pattern_graph.node_id * Hca_machine.Pattern_graph.node_id) list ->
  Problem.t ->
  ii:int ->
  (outcome, failure) result
(** [ii] is the capacity window the assignment must fit; [target_ii]
    (default [ii]) is the II the objective function optimises towards —
    the driver keeps it at the kernel's iniMII even when it has to relax
    [ii] for feasibility.  Without [target_ii] every cost moves with
    [ii], so the outcome's or failure's window is [(ii, ii)].  Fails
    when no partial solution takes the next node: no legal
    clusterisation exists at this II under the configured search
    effort. *)
