(** Self-contained incremental CDCL SAT solver for the exact
    cluster-assignment oracle — no external solver dependency.

    The design is the MiniSat recipe rebuilt on the flat data layout of
    the SEE hot path (DESIGN.md §15): clause literals live in one packed
    int arena (two header words — size/LBD/flags and the birth-probe
    stamp — followed by the literals), watch lists are stride-2 int
    arrays carrying a blocker literal next to each clause reference, and
    the propagate/analyze loop touches no boxed data.  On top of the
    classic pieces — two-watched-literal unit propagation, first-UIP
    conflict-clause learning, VSIDS-style variable activities served
    from a binary heap, phase saving, Luby-sequence restarts — this
    revision adds the machinery the incremental oracle needs:

    - {b assumption solving that preserves the solver}: learned
      clauses, variable activities and saved phases all survive a
      [solve ~assumptions] call, so consecutive "cluster MII ≤ k"
      probes of one kernel reuse each other's conflict analysis;
    - {b LBD-scored clause-DB reduction}: learnt clauses carry the
      number of distinct decision levels in them (their glue); when the
      live learnt count crosses a growing limit, the worst half (by
      LBD, ties broken by age) is dropped and the arena compacted.
      Glue clauses (LBD ≤ 3), locked reasons and problem clauses are
      never deleted, so every model still satisfies the input formula;
    - {b probe epochs}: {!new_probe} advances an epoch stamped into
      every clause learned afterwards; a propagation or conflict fired
      by a clause born in an earlier epoch counts as a
      {e reused-clause hit} — the direct measure of how much work the
      incremental search avoids re-deriving.

    Literals use the DIMACS convention: variable [v >= 1], literal
    [+v] for the positive phase and [-v] for the negative one. *)

type t

type result = Sat | Unsat | Unknown

val create : ?reduce_start:int -> unit -> t
(** [reduce_start] (default 2000) is the live-learnt-clause count that
    triggers the first DB reduction; the limit grows after each
    reduction.  Tests pin it low to exercise the reduction path. *)

val new_var : t -> int
(** Allocates and returns the next variable (numbered from 1). *)

val nvars : t -> int

val add_clause : t -> int list -> unit
(** Adds one clause over already-allocated variables.  The empty clause
    (or a clause falsified at level 0) makes the instance trivially
    unsat.  May be called between {!solve} calls (incremental use).
    @raise Invalid_argument on a zero or out-of-range literal. *)

val solve :
  ?assumptions:int list -> ?deadline:float -> ?max_conflicts:int -> t -> result
(** Decides the current clause set.

    [assumptions] are literals decided (in order) before any free
    decision; if the clause set forces their negation the answer is
    [Unsat] {e under the assumptions} — the clause set, its learnt
    database, activities and phases all stay reusable for the next
    call.  [deadline] is an absolute wall-clock instant
    ({!Hca_util.Clock.now} seconds) and [max_conflicts] a per-call
    conflict budget; crossing either returns [Unknown]. *)

val value : t -> int -> bool
(** Model value of a variable after a [Sat] answer.
    @raise Invalid_argument if the last call did not return [Sat]. *)

val new_probe : t -> unit
(** Advances the probe epoch: clauses learned from now on are stamped
    with the new epoch, and unit propagations or conflicts fired by
    learnt clauses of older epochs count into {!reused_hits}. *)

val clear_learnt : t -> unit
(** Backtracks to level 0 and drops every learnt clause (compacting
    the arena) — the "no clause reuse" mode of the equivalence
    property tests.  Level-0 implications survive as reason-less trail
    facts (analysis never dereferences level-0 reasons); problem
    clauses, activities and phases survive too. *)

(** {2 Statistics} — cumulative across every [solve] call. *)

val conflicts : t -> int
(** Total conflicts (the oracle's [explored] analogue of the SEE
    state counter). *)

val decisions : t -> int

val propagations : t -> int
(** Literals enqueued by unit propagation. *)

val learnt_total : t -> int
(** Clauses learned since [create] (deleted ones included). *)

val deleted_total : t -> int
(** Learnt clauses dropped by DB reductions and {!clear_learnt}. *)

val reused_hits : t -> int
(** Propagations/conflicts fired by learnt clauses born in an earlier
    probe epoch — the clause-reuse payoff across {!new_probe} calls. *)

val fold_problem_clauses : t -> ('a -> int list -> 'a) -> 'a -> 'a
(** Folds over the stored problem (non-learnt) clauses as DIMACS
    literal lists — the hook the model-check property tests use to
    verify that a model still satisfies the input formula after DB
    reductions.  Clauses satisfied at level 0 when added (and level-0
    unit implications) are not stored; they hold in any model extending
    the level-0 trail. *)

val pp_stats : Format.formatter -> t -> unit
