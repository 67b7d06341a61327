(** The Space Exploration Engine (§3): a local-scope beam search that
    maps the nodes of one subproblem onto the nodes of its PG.

    At each step the SEE picks the next node from the priority list of
    unassigned ones, evaluates the assignment [n -> c] for every
    candidate cluster with the objective function, keeps the best
    [candidate_width] moves per partial solution (candidate filter),
    and prunes the resulting frontier back to [beam_width] partial
    solutions (node filter, Fig. 5).  When a partial solution has no
    candidate at all, the no-candidates action invokes the Route
    Allocator before dropping it. *)

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

val solve :
  ?config:Config.t ->
  ?target_ii:int ->
  ?backbone:(Hca_machine.Pattern_graph.node_id * Hca_machine.Pattern_graph.node_id) list ->
  Problem.t ->
  ii:int ->
  (outcome, string) result
(** [ii] is the capacity window the assignment must fit; [target_ii]
    (default [ii]) is the II the objective function optimises towards —
    the driver keeps it at the kernel's iniMII even when it has to relax
    [ii] for feasibility.  Without [target_ii] every cost moves with
    [ii], so the outcome's window is [(ii, ii)].  Fails when the
    frontier empties: no legal
    clusterisation exists at this II under the configured search
    effort. *)
