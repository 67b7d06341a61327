(** The top-level HCA entry point: the initiation-interval search loop
    around {!Hierarchy.solve}, plus the record every surface reports —
    bench rows, [hca dse] rows and daemon replies all go through
    {!to_json}, and {!of_json} reads them back.

    The driver starts at the theoretical lower bound
    [iniMII = max (MIIRec, MIIRes)] and climbs until a legal
    clusterisation exists; it then explores [ii_patience] further II
    values, because a little extra slack sometimes lets the SEE pack
    with fewer copies and a smaller {e final} MII, and keeps the best
    legal result. *)

open Hca_ddg
open Hca_machine

(** Allocation accounting, shared by {!run} and the exact oracle:
    [Gc.allocated_bytes] / minor-collection deltas since
    {!Alloc_meter.start}.  [Gc.allocated_bytes] is per-domain in
    OCaml 5, so a meter sees its own domain only; {!run} adds what its
    attempts allocated on pool domains. *)
module Alloc_meter : sig
  type meter

  val start : unit -> meter

  val mb : meter -> float
  (** MB allocated on this domain since [start]. *)

  val minor_gcs : meter -> int
  (** Minor collections since [start]: a minor collection stops every
      domain, so the count is process-wide. *)
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
      (** MB allocated on the OCaml heap during the search: the calling
          domain's {!Gc.allocated_bytes} delta plus, for each attempt
          that ran on a pool domain ([jobs > 1]), that domain's delta
          over the attempt — so one run reports about the same figure
          at any [jobs].  The churn figure the data-layout work
          optimises. *)
  minor_gcs : int;
      (** minor collections during the search, process-wide (they
          include other work running at the same time) *)
  placement : int;
      (** FNV digest of the committed placement and forwards of
          [result], taken once when the run finishes; [0] without one *)
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

val invariant_string : t -> string
(** Canonical one-line rendering of every field a correct run
    determines uniquely — the quality figures plus {!field-placement}.
    Excludes the wall clock, the memo counters and [memo_enabled], so
    the differential fuzz harness asserts this string is bit-identical
    at every [jobs], memo on/off, traced or untraced.  It reads only
    the record, so a decoded report ({!of_json}) reproduces it. *)

val to_json : t -> (string * Hca_util.Json.t) list
(** The one JSON encoding of a report: each field under its own name,
    in declaration order, then ["invariant"] ({!invariant_string}), and
    ["error"] only when set.  [placement] is a hex string (a 62-bit
    digest does not survive a JSON double).  Four fields are left out:
    [kernel], because every row and reply is already keyed by it
    ({!Hca_util.Json.row} writes it first); [result]; and the meters
    [runtime_s], [alloc_mb] and [minor_gcs], so rows carry no timings
    and [hca dse] NDJSON stays byte-identical at any [--jobs].  Callers
    extend the list with their own fields. *)

val quality_json : t -> (string * Hca_util.Json.t) list
(** The fields of {!to_json} that [bench_guard] gates — [legal],
    [final_mii], [copies], [max_wire_load] — for rows that must not
    carry the memo counters (served loadtest rows, where a warm store
    changes them). *)

val of_json : Hca_util.Json.t -> (t, string) result
(** The one reader: a JSON object holding [kernel] and every field
    {!to_json} writes ([error] optional) decodes to the report it came
    from, with [result = None] and the meters 0; other keys are
    ignored.  A missing or wrong-typed field is an [Error] naming it,
    and so is an ["invariant"] that the decoded fields do not
    reproduce. *)

val pp : Format.formatter -> t -> unit
(** The report in two lines.  Its memo figures read ["memo=off"] when
    the run was made without a cache, ["memo=H/T (reused R)"] otherwise
    — even when all three counters are zero. *)
