(** Minimum Initiation Interval bounds for modulo scheduling (Rau 1994),
    as used by the paper's objective function (§4.2).

    [MII = max (MIIRec, MIIRes)].  HCA evaluates these both globally
    (level 0, the whole machine) and per cluster with an extra
    copy-pressure term (see {!Hca_core.Cost}). *)

val rec_mii : Ddg.t -> int
(** Recurrence-constrained bound:
    [max over circuits C of ceil (latency(C) / distance(C))],
    computed per non-trivial SCC by binary search on the II with a
    Bellman–Ford positive-circuit test on weights
    [latency - II * distance].  Returns [1] for a recurrence-free graph
    (one iteration can start every cycle as far as data flow goes). *)

type resources = {
  alu_slots : int;  (** ALUs usable per cycle (one per CN) *)
  ag_slots : int;  (** address generators usable per cycle *)
  issue_slots : int;  (** total instruction issues per cycle: CN count *)
  dma_ports : int;  (** simultaneous outstanding DMA requests (paper: 8) *)
}

val res_mii : Ddg.t -> resources -> int
(** Resource-constrained bound: for each resource, uses per iteration
    divided by per-cycle capacity, rounded up; the bound is the max.
    A class the machine has no slot of bounds nothing here: when the
    kernel has no op of that class it is irrelevant, and when it has
    one no II fits, which {!unmappable} reports. *)

val unmappable : Ddg.t -> resources -> string option
(** [Some reason] when the kernel uses a resource class the machine
    has no slot of — the reason names the class and the op count —
    so no II maps it. *)

val mii : Ddg.t -> resources -> int
(** [max (rec_mii g) (res_mii g r)]. *)

val achievable : Ddg.t -> ii:int -> bool
(** True iff no recurrence circuit forbids initiation interval [ii],
    i.e. [ii >= rec_mii g].  Exposed for property tests. *)
