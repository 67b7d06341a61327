(** CNF encoder: one flat ICA instance, one cluster-MII bound [k],
    one propositional formula.

    The formula is satisfiable iff there is an assignment of every DDG
    node to a CN whose {e projected final MII} — computed with exactly
    the cost terms of {!Hca_core.Cost.cluster_mii} — is at most [k].
    Variables:

    - [x(n,c)]: node [n] sits on CN [c] (exactly-one per node);
    - [r(s,c)]: the value of producer [s] is received on CN [c]
      (forced true whenever a consumer of [s] sits on [c] while [s]
      does not — the receive primitive of §4.2);
    - in strict mode, [e(a,b)]: some value flows from CN [a] to CN [b]
      (the real-arc indicator bounded by the {!Hca_machine.Pattern_graph}
      MUX capacity), and [w(s,c)]: the value of [s] leaves CN [c]
      (single-out-wire payload serialisation);
    - [u(i,j)]: true only if some node [<= i] sits on the [j]-th CN of
      a capacity group (symmetry breaking, below).

    Cardinality bounds use the Sinz sequential-counter encoding.

    CNs with equal resource tables ({!Hca_machine.Resource.equal}) form
    a capacity group, and permuting a group maps models to models.  So
    the formula keeps only {e canonical} models: within each group, in
    CN order, a CN hosts a node only if the CN before it hosts an
    earlier node (value precedence through [u(i,j)]).  Any model
    relabelled within its groups in order of first use is canonical,
    so every verdict is that of the plain encoding; a decoded
    assignment is canonical, never an arbitrary relabelling.

    Strict mode reproduces the {e structural} wire constraints the SEE
    enforces through {!Hca_machine.Copy_flow}; the default relaxed mode
    drops them, because on the complete flat PG the Route Allocator can
    always realise any flow by detouring (at the price of extra forward
    ops that only increase cluster load) — so the relaxed optimum is a
    certified lower bound on any SEE-achievable final MII, which is what
    the optimality-gap report needs. *)

open Hca_core

(** A digested flat instance, independent of any particular bound. *)
type instance

val of_problem : Problem.t -> instance
(** @raise Invalid_argument if the problem has pinned (port) nodes —
    the oracle handles whole-graph flat instances only. *)

val size : instance -> int
(** Number of free DDG nodes. *)

val cns : instance -> int

val at_most : Sat.t -> int list -> int -> unit
(** [at_most sat lits k] constrains at most [k] of [lits] to be true
    (Sinz sequential counter; no clauses when the bound is slack).
    Exposed as the reusable cardinality brick of the encoding. *)

val counter : Sat.t -> int list -> width:int -> int array
(** [counter sat lits ~width] lays a one-directional Sinz counter
    ladder over [lits] and returns its output column [out]:
    [out.(j)] is implied whenever {e more than} [j] of the literals are
    true, for [j < min (length lits) width].  "Count ≤ b" is then the
    single assumption [¬out.(b)] — the incremental probing brick: the
    ladder clauses are bound-independent, so every probe of a different
    [b] reuses them (and everything learned from them).  Only the
    count→counter direction is encoded; that keeps the ladder
    equisatisfiable for at-most bounds while halving the clauses. *)

type encoded = {
  sat : Sat.t;
  assign_var : int array array;  (** [assign_var.(n).(c)] = DIMACS var of x(n,c) *)
}

val encode : ?strict:bool -> instance -> k:int -> encoded
(** Builds the formula for cluster-MII bound [k].  [strict] (default
    [false]) adds the MUX fan-in and out-wire constraints. *)

(** An instance encoded {e once} for a whole family of bounds: the
    k-independent structure plus one counter ladder per capacity group,
    each probe "cluster MII ≤ k" expressed purely through assumption
    literals — the clause set never changes between probes, so learnt
    clauses, activities and phases carry over (DESIGN.md §16). *)
type incremental = {
  enc : encoded;  (** the shared solver and x(n,c) variables *)
  max_k : int;  (** loosest probeable bound *)
  bounds : (int array * int) list;
      (** per capacity group: ladder outputs and the multiplier [mult]
          such that the group's count must stay ≤ [mult]·k *)
}

val make : ?strict:bool -> instance -> max_k:int -> incremental
(** Builds the probe-many encoding.  [max_k] bounds the loosest probe
    ({!assumptions} refuses larger k); ladder widths are sized to it,
    so keep it at the first upper bound of the search (the heuristic
    incumbent).
    @raise Invalid_argument if [max_k < 1]. *)

val assumptions : incremental -> k:int -> int list
(** The assumption literals expressing "every capacity group within its
    k-window" — pass to {!Sat.solve}.  Groups too small to ever exceed
    their window contribute nothing.
    @raise Invalid_argument if [k] is outside [1, max_k]. *)

val decode : instance -> encoded -> int array
(** Reads the model back as a node -> CN map (indexed by problem-node
    id, which for a flat instance is also the global instruction id).
    Call only after [Sat.solve] returned [Sat]. *)

val cluster_mii_of_assignment : instance -> int array -> int
(** Recomputes [max] over CNs of {!Hca_core.Cost.cluster_mii} for a
    decoded assignment — the independent check that the clauses and the
    cost terms agree (used by the oracle and the tests). *)

val copies_of_assignment : instance -> int array -> int
(** Inter-CN value hops of an assignment, {!Hca_machine.Copy_flow}
    convention: a value broadcast to two CNs counts twice. *)
