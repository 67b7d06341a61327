(** The top-level HCA entry point: the initiation-interval search loop
    around {!Hierarchy.solve}, plus the record the benches print as the
    rows of Table 1.

    The driver starts at the theoretical lower bound
    [iniMII = max (MIIRec, MIIRes)] and climbs until a legal
    clusterisation exists; it then explores [ii_patience] further II
    values, because a little extra slack sometimes lets the SEE pack
    with fewer copies and a smaller {e final} MII, and keeps the best
    legal result. *)

open Hca_ddg
open Hca_machine

(** Calling-domain allocation accounting, shared by {!run} and the
    exact oracle: [Gc.allocated_bytes] / minor-collection deltas since
    {!Alloc_meter.start}.  Per-domain in OCaml 5 — at [jobs > 1] worker
    churn is invisible; compare like with like at [--jobs 1]. *)
module Alloc_meter : sig
  type meter

  val start : unit -> meter

  val mb : meter -> float
  (** MB allocated on this domain since [start]. *)

  val minor_gcs : meter -> int
  (** Minor collections on this domain since [start]. *)
end

type t = {
  kernel : string;
  machine : string;
  n_instr : int;
  mii_rec : int;
  mii_res : int;
  ini_mii : int;
  legal : bool;
  final_mii : int option;  (** [None] when no II up to the limit worked *)
  ii_used : int;
  copies : int;
  forwards : int;
  max_wire_load : int;
  explored_states : int;
  routed_moves : int;
  cache_hits : int;
      (** subproblem memo hits summed over the II attempts made: the
          climb and the patience window (identical at every [jobs]:
          the memo keys embed the II, so no attempt sees another's
          entries) *)
  cache_misses : int;
  reused_subproblems : int;
      (** subproblems short-circuited transitively by the hits *)
  memo_enabled : bool;
      (** whether the run carried a memo cache at all — lets consumers
          (and {!pp}) distinguish "memo on, zero hits" from "memo off" *)
  timed_out : bool;
      (** the [deadline_s] budget expired mid-search: the row carries
          the best result found before the cut-off (possibly none) —
          a structured [Deadline_exceeded] signal, not a silent
          truncation.  Always [false] without a deadline. *)
  runtime_s : float;  (** wall-clock seconds spent in the whole search *)
  alloc_mb : float;
      (** MB allocated on the calling domain's OCaml heap during the
          search ({!Gc.allocated_bytes} delta): the churn figure the
          data-layout work optimises.  At [jobs > 1] the worker domains'
          allocation is not included — compare like with like at
          [--jobs 1]. *)
  minor_gcs : int;
      (** minor collections triggered on the calling domain during the
          search (same caveat as {!field-alloc_mb}) *)
  error : string option;
  result : Hierarchy.t option;  (** the winning assignment, for inspection *)
}

val run :
  ?config:Config.t ->
  ?jobs:int ->
  ?memo:bool ->
  ?cache:Hierarchy.cache ->
  ?deadline_s:float ->
  Dspfabric.t ->
  Ddg.t ->
  t
(** The climb attempts iniMII, iniMII+1, … one II at a time, up to the
    first feasible II (or the cap [min max_ii (4·iniMII + 12)]), at
    every [jobs].  [jobs] (default 1) sizes the domain pool that then
    evaluates the [ii_patience] IIs above it; each of those attempts
    checks the deadline before it starts, so at [jobs = 1] they run in
    order and stop at the deadline as the climb does.  Results —
    including the [explored_states]/[routed_moves] totals and the memo
    counters — are identical at every [jobs]; only the wall clock
    changes.

    [memo] (default [true]) shares one {!Hierarchy.cache} across the II
    attempts, short-circuiting subproblems that inter-level
    backtracking would re-solve verbatim, and one
    {!Hierarchy.windows} table, so an attempt reuses the set-level
    searches an earlier one made at another II.  Every field except
    [runtime_s] is bit-identical with the memo on or off (property
    tested).

    [cache] substitutes a caller-owned cache for the per-run one (only
    meaningful with [memo = true], the default): the compile daemon
    passes its persistent cross-request store here, so repeated or
    similar kernels start warm.  A warm cache changes the hit/miss
    counters and the wall clock, never the result.

    [deadline_s] (wall-clock seconds from entry) cuts the search off
    between II attempts.  An expired deadline sets {!field-timed_out}
    and returns the best attempt that finished in time — a legal row
    when one exists, otherwise an error row — rather than truncating
    silently.  Deadline runs are wall-clock dependent, so the
    invariance guarantees above only cover [deadline_s = None]. *)

val header : string list
(** Column names matching {!row}. *)

val row : t -> string list
(** Paper-style row: loop, N_Instr, MIIRec, MIIRes, legal, final MII. *)

val invariant_string : t -> string
(** Canonical one-line rendering of every field a correct run
    determines uniquely — the quality figures plus an FNV digest of the
    committed placement and forwards.  Excludes the wall clock, the
    memo counters and [memo_enabled], so the differential fuzz harness
    asserts this string is bit-identical at every [jobs], memo on/off,
    traced or untraced. *)

val pp : Format.formatter -> t -> unit
(** The report in two lines.  Its memo figures read ["memo=off"] when
    the run was made without a cache, ["memo=H/T (reused R)"] otherwise
    — even when all three counters are zero. *)
