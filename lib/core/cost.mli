(** Objective function of the Space Exploration Engine (§3).

    The assignment [n -> c] is evaluated by a weighted combination of
    heuristic criteria.  Following §4.2, the dominant factor is the
    projected Minimum Initiation Interval of the loop on the clusterised
    machine; the other terms break ties towards fewer inter-cluster
    copies and a balanced load, which keep the copy pressure low in the
    later Mapper pass. *)

type weights = {
  w_copy : float;  (** per inter-cluster value hop *)
  w_balance : float;  (** load-imbalance penalty (utilisation spread) *)
  w_pressure : float;  (** per cycle of projected-II overshoot over the target *)
  w_port : float;  (** per input port drawn into the level (leaf: scarce, K) *)
  w_util : float;  (** peak-utilisation smoothing term *)
  w_fanin : float;
      (** in-neighbour saturation: clusters whose MUX inputs are nearly
          exhausted choke later assignments, so the search steers away
          before hitting the wall *)
  w_tear : float;
      (** region-tear lookahead: penalty per region node that will not
          fit on the chosen cluster after this assignment — discourages
          starting an affinity region on a cluster too full to hold it *)
  w_carried : float;
      (** per loop-carried dependence cut across clusters: every such
          cut stretches a recurrence circuit by the copy latency and
          inflates MIIRec beyond anything the static bound predicted *)
}

val default_weights : weights

(** What the scorer sees of a (partial) solution; produced by
    {!State.summary} so that the two modules stay decoupled. *)
type summary = {
  copies : int;
  max_util : float;  (** max over clusters of demand slots / capacity slots *)
  util_spread : float;  (** max - min utilisation over non-empty capacity clusters *)
  projected_ii : int;  (** cluster-MII estimate incl. receive pressure *)
  target_ii : int;
  used_in_ports : int;
  fanin_sat : float;
      (** sum over clusters of (real in-neighbours / max_in)^2 *)
  carried_cuts : int;
      (** loop-carried dependences whose endpoints sit on different
          clusters *)
}

val score : weights -> summary -> float
(** Lower is better.  Monotone in every summary component. *)

val score_flat :
  weights ->
  copies:int ->
  max_util:float ->
  util_spread:float ->
  projected_ii:int ->
  target_ii:int ->
  used_in_ports:int ->
  fanin_sat:float ->
  carried_cuts:int ->
  float
(** {!score} over unpacked summary components.  The float arithmetic
    exists exactly once — [score] is defined in terms of this — so the
    SEE's batch scorer, which never materialises a [summary] record,
    is bit-identical to the record path by construction. *)

val score_terms :
  weights ->
  float array ->
  copies:int ->
  projected_ii:int ->
  target_ii:int ->
  used_in_ports:int ->
  carried_cuts:int ->
  unit
(** {!score_flat} with its float components passed in an array:
    [terms.(0)] max util, [terms.(1)] util spread and [terms.(2)]
    fan-in saturation; the score is written to [terms.(3)].  The same
    arithmetic, so the same bits, with no float boxed across the call —
    the form the SEE's per-candidate scorer uses. *)

val cluster_mii :
  demand:Hca_machine.Resource.t ->
  capacity:Hca_machine.Resource.t ->
  receives:int ->
  max_in:int ->
  int
(** The per-cluster projected-MII term of §4.2, shared by
    {!State.summary} and the exact oracle's CNF encoder
    ({!Hca_exact.Encode}) so the two provably optimise the same
    quantity:
    [max (minII demand capacity)
         (ceil ((demand.alus + receives) / capacity.alus))
         (ceil (receives / max_in))]
    — the FU/issue window, the receive primitives competing with ALU
    ops for the issue slot, and the incoming-wire serialisation. *)

val cluster_mii_flat :
  d_alus:int ->
  d_ags:int ->
  c_alus:int ->
  c_ags:int ->
  receives:int ->
  max_in:int ->
  int
(** {!cluster_mii} over unpacked demand/capacity components, for the
    flat-layout refresh path that keeps cluster demand as
    struct-of-arrays and never builds [Resource.t] records.
    [cluster_mii] is defined in terms of this. *)
