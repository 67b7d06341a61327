(** The differential driver: one generated instance in, one verdict out.

    For each instance the driver runs the full HCA pipeline and
    cross-checks it four ways:

    - {b coherency} — {!Hca_core.Report.run} must produce configurations
      the independent {!Hca_core.Coherency} checker accepts, and the
      receive expansion {!Hca_sched.Lower.run} lowers it to must pass
      {!Hca_core.Postprocess.validate};
    - {b oracle} — on small instances the SAT oracle's certified lower
      bound must not exceed the heuristic's achieved flat projected MII
      ([heuristic < bound] is always a bug; equality with a proven
      optimum is reported as gap 0);
    - {b semantics} — the kernel as {!Hca_sched.Lower.run} schedules
      it, executed on
      {!Hca_sim.Machine_sim} must store bit-identical values to the
      {!Hca_sim.Interp} reference on the original DDG;
    - {b invariance} — {!Hca_core.Report.invariant_string} must be
      bit-identical at [--jobs 1] and [--jobs 2], memo on and off,
      traced and untraced.

    The verdict is a pure function of the instance: the oracle runs
    with an infinite wall-clock budget and a {e conflict} budget, and
    nothing in the driver reads the clock. *)

type opts = {
  jobs : int;  (** pool size of the primary {!Hca_core.Report.run} *)
  iterations : int;  (** simulated loop iterations for the trace check *)
  oracle_size_cap : int;  (** skip the SAT cross-check on larger kernels *)
  oracle_cn_cap : int;  (** ... and on machines with more CNs *)
  oracle_conflicts : int;  (** deterministic per-probe solver budget *)
}

val default_opts : opts
(** jobs 1, 4 iterations, oracle on kernels <= 14 instructions and
    machines <= 16 CNs with 20k conflicts per probe. *)

type oracle_outcome =
  | Oracle_checked of {
      lower : int;  (** certified lower bound on any flat projected MII *)
      achieved : int;  (** the heuristic's own assignment, re-projected *)
      optimum : int option;  (** proven optimum when the oracle closed *)
    }
  | Oracle_skipped of string  (** "size", "cns" or "infeasible" *)

type sim_outcome =
  | Sim_checked of { stores : int; cycles : int }
  | Sim_skipped of string
      (** "infeasible", "expand", or "sched: ..." — an unschedulable
          synthetic shape is a counted skip, not a failure *)

type failure = { check : string; detail : string }
(** [check] is one of ["coherency"], ["postprocess"], ["oracle"],
    ["semantics"], ["invariance"] — the name the shrinker preserves. *)

type t = {
  instance : Gen.instance;
  feasible : bool;  (** a legal clusterisation was found *)
  final_mii : int option;
  oracle : oracle_outcome;
  sim : sim_outcome;
  failures : failure list;  (** empty = the instance passed every check *)
}

val gap : t -> int option
(** [achieved - optimum] when the oracle proved the optimum. *)

val run : ?opts:opts -> Gen.instance -> t

val verdict_line : t -> string
(** Deterministic one-line verdict, e.g.
    ["seed 17: ok size=14 machine=dspfabric-8(N=4,M=4,K=4) final=3 oracle=lower=2 achieved=3 optimum=2 gap=1 sim=ok(stores=8,cycles=21)"].
    Contains no wall-clock figure, so two runs of the same seed print
    the same bytes. *)
