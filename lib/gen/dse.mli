(** Design-space exploration over machine descriptions ([hca dse]).

    A sweep takes an ordered list of named machine points (an explicit
    grid, seeded random samples via {!Gen.desc}, or parsed [.machine]
    files), evaluates every (point × kernel) pair with {!Report.run},
    scores each point by its mapped MII across the kernel suite, and
    reports the Pareto front over (score, machine wire cost, CN count)
    — all three minimised.

    Determinism: evaluations fan out onto a {!Hca_util.Domain_pool}
    but results are reassembled in enumeration order, and every figure
    {!to_ndjson} prints is a pure function of (points, kernels, config)
    — no wall clock, no counters that depend on scheduling — so the
    NDJSON is byte-identical at any [jobs].  The Pareto front is
    ordered canonically by (score, wires, CNs, point name), so its
    contents do not depend on the enumeration order either. *)

open Hca_ddg
open Hca_machine
open Hca_core

type point = { pname : string; desc : Machine_desc.t }

type eval = { point : string; kernel : string; report : Report.t }

type summary = {
  point : string;
  machine : string;  (** display name of the description *)
  cns : int;
  machine_wires : int;  (** {!Machine_desc.wire_cost} *)
  score : int option;
      (** sum of final MIIs across the suite; [None] unless every
          kernel mapped legally *)
  legal_kernels : int;
  pareto : bool;
}

type result = {
  evals : eval list;  (** in enumeration order: points major, kernels minor *)
  summaries : summary list;  (** one per point, in enumeration order *)
  front : summary list;
      (** the non-dominated viable points, canonically ordered *)
}

val grid_points :
  ?dma:int list ->
  fanouts:int array list ->
  caps:int list ->
  unit ->
  point list
(** Cross product, enumerated fanouts-major: one {!Dspfabric.make}
    point per (fanout shape, capacity [c] as [N=M=K=c], DMA count).
    [dma] defaults to [[8]].  Point names are derived from the
    coordinates (["g4x4-c8-d8"]), not the position, so reordering the
    space never renames a point.
    @raise Invalid_argument when a dimension is empty or a shape is
    rejected by {!Dspfabric.make}. *)

val random_points :
  ?knobs:Gen.machine_knobs ->
  ?hetero:float ->
  count:int ->
  seed:int ->
  unit ->
  point list
(** [count] points sampled by {!Gen.desc} at seeds [seed .. seed+count-1],
    named ["r<seed>"]. *)

val machine_points : (string * Machine_desc.t) list -> point list
(** Explicit points, e.g. parsed from [.machine] files; the string is
    the point name (typically the file path). *)

val run :
  ?config:Config.t ->
  ?jobs:int ->
  kernels:(string * Ddg.t) list ->
  point list ->
  result
(** Evaluates the full (point × kernel) product.  [jobs] (default 1)
    sizes the pool; each individual evaluation runs at [jobs:1] with
    its own memo cache, so rows are bit-equal to a standalone
    {!Report.run} on that machine.
    @raise Invalid_argument on an empty point or kernel list, or on
    duplicate point names. *)

val non_dominated : (int * int * int) array -> bool array
(** [non_dominated costs].(i) iff no [j] has every component [<=] and
    at least one [<] — the Pareto membership predicate (all axes
    minimised), exposed for the property tests. *)

val to_ndjson : result -> string
(** One row per evaluation (experiment ["dse"], kernel
    ["<point>/<kernel>"], fields {!Report.to_json}) followed by one row
    per point (experiment ["dse_points"]).  Deterministic byte-for-byte
    at any [jobs]. *)

val ranked_table : result -> string
(** Human-readable ranking: viable points by ascending score (ties by
    wires, then CNs), Pareto members starred, unviable points last. *)

val check : result -> (unit, string) Stdlib.result
(** Self-check for the CI gate: the evaluation count matches
    points × kernels, every summary is consistent with its rows, and
    the front is exactly the non-dominated viable set. *)
