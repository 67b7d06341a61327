(** Seeded random generator of differential-fuzzing instances: a kernel
    DDG plus a machine configuration, both a pure function of the seed.

    The DDGs are {e well-formed by construction}: instruction ids are
    dense, every intra-iteration ([distance = 0]) edge points from a
    lower id to a higher one (so the acyclicity {!Hca_ddg.Ddg.Builder}
    checks holds trivially), and every opcode that needs an operand has
    at least one predecessor — which makes every generated kernel
    executable by the {!Hca_sim.Interp} reference semantics, a
    precondition of the simulator cross-check.

    Nothing here reads the wall clock or [Random]: two processes given
    the same seed and knobs build bit-identical instances, which is
    what makes every fuzz verdict replayable verbatim. *)

open Hca_ddg
open Hca_machine

(** Shape knobs of the kernel generator. *)
type ddg_knobs = {
  min_size : int;  (** inclusive, >= 2 *)
  max_size : int;  (** inclusive *)
  mem_ratio : float;  (** probability of a DMA operation per node, [0, 0.5] *)
  const_ratio : float;  (** probability of a fresh constant per node *)
  max_fanout : int;  (** soft cap on intra-iteration out-degree *)
  recurrences : int;  (** loop-carried back edges drawn per kernel *)
  max_distance : int;  (** omega bound of the back edges, >= 1 *)
  opcode_mix : Opcode.t array;  (** ALU palette (all tolerate 1-2 operands) *)
}

val default_ddg_knobs : ddg_knobs
(** 6..24 instructions, 20% memory, 10% constants, fan-out 4, up to two
    loop-carried edges of distance 1..2. *)

(** Shape knobs of the machine generator. *)
type machine_knobs = {
  fanout_choices : int array array;
      (** hierarchy shapes drawn uniformly; every shape needs >= 2
          levels of fan-out >= 2 *)
  min_cap : int;  (** inclusive lower bound on the N/M/K MUX capacities *)
  max_cap : int;
  min_dma : int;  (** inclusive bounds on the shared DMA request ports *)
  max_dma : int;
}

val default_machine_knobs : machine_knobs
(** 4..16 CNs (shapes [2x2], [4x2], [2x2x2], [4x4]), capacities 2..8,
    2..8 DMA ports — small enough for the SAT oracle to certify. *)

(** One differential-fuzzing instance. *)
type instance = { seed : int; ddg : Ddg.t; fabric : Dspfabric.t }

val ddg : ?knobs:ddg_knobs -> seed:int -> unit -> Ddg.t
(** Deterministic in [(knobs, seed)].  The graph always contains at
    least one [Store], so the reference trace is never vacuous.
    @raise Invalid_argument on nonsense knobs. *)

val fabric : ?knobs:machine_knobs -> seed:int -> unit -> Dspfabric.t
(** Deterministic in [(knobs, seed)]; drawn from an independent
    sub-stream of the same seed, so kernel and machine shapes do not
    correlate. *)

val desc :
  ?knobs:machine_knobs ->
  ?hetero:float ->
  seed:int ->
  unit ->
  Machine_desc.t
(** The machine generator behind [hca dse --random]: {!fabric}'s draws
    (same sub-stream — [desc ~hetero:0. ~seed] {e is} [fabric ~seed]),
    then, with probability [hetero] (default 0) per CN, a heterogeneous
    resource table drawn from continued output of the same stream:
    ALU/MUL-heavy ([2a 1g]), pure-compute ([1a 0g]) or memory-heavy
    ([1a 2g]) CNs.  A non-uniform draw renames the description
    ([name ^ "+het"]) so rows stay tellable apart; {!Machine_desc.id}
    separates them regardless.
    @raise Invalid_argument on nonsense knobs or [hetero] outside
    [0, 1]. *)

val instance :
  ?ddg_knobs:ddg_knobs -> ?machine_knobs:machine_knobs -> seed:int -> unit ->
  instance

val well_formed : Ddg.t -> bool
(** The invariant the generator guarantees and the shrinker preserves:
    every instruction whose opcode consumes an operand
    (everything except [Const] and [Agen]) has at least one
    predecessor, so {!Hca_sim.Semantics.eval} is total on the graph. *)
