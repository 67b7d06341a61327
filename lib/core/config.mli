(** Tunables of the whole HCA pipeline: the SEE search shape (§3), the
    no-candidates action, and the initiation-interval search of the
    driver. *)

(** Order in which the SEE picks nodes from the priority list of
    unassigned ones. *)
type priority =
  | Affinity
      (** the default: a greedy balanced edge-affinity clustering
          (after Chu et al., PLDI'03) pre-groups the nodes into
          cluster-sized regions, and each region is presented to the
          search consecutively — so the copy cost naturally lands a
          whole region on one cluster instead of tearing it across the
          capacity boundary *)
  | Criticality  (** decreasing height (longest path to a sink) *)
  | Source_order  (** DDG id order — the ablation strawman *)

type t = {
  beam_width : int;
      (** frontier size kept by the node filter (Fig. 5); 1 = greedy *)
  candidate_width : int;
      (** candidates kept per partial solution by the candidate filter *)
  priority : priority;
  weights : Cost.weights;
  enable_router : bool;
      (** no-candidates action: invoke the Route Allocator (Fig. 6 (b))
          instead of giving up on the partial solution *)
  max_route_hops : int;  (** detour length bound for the Route Allocator *)
  leaf_feed_fanin_cap : int;
      (** heuristic cap on the in-neighbours of each cluster at the
          level whose children are leaf quads: every distinct wire into
          a quad burns one of its 8 CN input slots, so the level above
          must stay well under its own MUX capacity [M] *)
  mapper_spread : bool;
      (** copy-distribution policy of the set levels: [true] spreads
          copies over all available wires to minimise per-wire pressure
          (the Fig. 9 policy), [false] (default) packs them onto as few
          wires as possible — every extra wire becomes an input port of
          a child subproblem and eats its in-neighbour budget.  The
          level feeding the leaf quads always packs. *)
  max_alternatives : int;
      (** inter-level backtracking width: how many of a subproblem's
          surviving beam states the driver may try when a child
          subproblem of the best one turns out infeasible *)
  ii_patience : int;
      (** after the first feasible II, how many further II values the
          driver explores looking for a smaller final MII *)
  max_ii : int;  (** absolute II search ceiling *)
}

val default : t

val greedy : t
(** [beam_width = 1, candidate_width = 1]: the cheapest configuration,
    used by ablations and by the flat-ICA baseline at scale. *)

val search :
  ?beam:int ->
  ?candidates:int ->
  ?spread:bool ->
  ?fanin_cap:int ->
  unit ->
  (t, string * int) result
(** {!default} with [beam_width], [candidate_width], [mapper_spread] and
    [leaf_feed_fanin_cap] replaced by the given values: the search
    settings of the [hca] flags and of a serve request's ["config"]
    object, checked here for both.  The three integers must be at
    least 1; otherwise the error carries the first that is not, by its
    label (["beam"], ["candidates"] or ["fanin_cap"]), and its value. *)
