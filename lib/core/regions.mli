(** Region growing for the Affinity priority order: a greedy balanced
    clustering of a subproblem's free nodes into cluster-sized groups
    with high internal edge affinity (after the multilevel partitioning
    of Chu, Fan and Mahlke, PLDI'03, §6 of the paper).

    Regions only shape the {e order} in which the SEE visits nodes —
    the beam search still chooses the clusters — so there may be more
    regions than PG nodes; each is simply presented consecutively. *)

val partition : Problem.t -> capacity:int -> int array * int option
(** [partition problem ~capacity] returns a region index per problem
    node ([-1] for pinned port nodes).  Each region holds at most
    [capacity] nodes.  Regions are numbered in discovery order, seeds
    being picked by decreasing criticality, so lower-numbered regions
    tend to hold the earlier/denser dataflow.  A region grows by the
    unassigned node with the largest summed affinity to its members
    (ties to the smaller id) until that sum falls below 2 or the region
    is full.

    Affinity between two free nodes counts their direct dependences,
    plus a strong bonus for feeding the same output port (they must end
    up on the same cluster: unary port fan-in) and a mild bonus for
    consuming the same input-port value (sharing one delivered copy).

    Also returns the capacities the partition holds at: [Some c] when
    every region stopped on its gain, so every capacity [>= c] (one
    more than the largest region) grows the very same regions; [None]
    when some region stopped because it was full, so another capacity
    may not. *)

val partition_ddg :
  Hca_ddg.Ddg.t ->
  members:Hca_ddg.Instr.id list ->
  capacity:int ->
  (Hca_ddg.Instr.id -> int)
(** Same region growing, directly on a set of global instructions: used
    by the Mapper to colour the values it puts on wires.  A wire's whole
    payload later funnels through a single downstream sub-cluster, so
    only values whose producers plausibly co-locate (same region, sized
    to that sub-cluster) may share a wire.  Non-members map to [-1]. *)
