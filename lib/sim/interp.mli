(** Reference interpreter: executes a kernel DDG for a number of loop
    iterations under the {!Semantics}.  The observable behaviour of a
    streaming kernel is its store trace; two executions of the same
    kernel — e.g. the original DDG and the clusterised/scheduled one —
    are equivalent iff their traces match. *)

open Hca_ddg

type event = {
  store : Instr.id;  (** the store instruction (id in the executed DDG) *)
  iteration : int;
  address : Semantics.value;
  value : Semantics.value;
}

type trace = event list
(** In (iteration, store id) order. *)

val run : ?iterations:int -> Ddg.t -> trace
(** Executes [iterations] (default 8) iterations.  Loop-carried
    operands read {!Semantics.initial} values for the first [distance]
    iterations.  Operand order is the dependence insertion order, as
    produced by {!Hca_kernels.Kbuild}. *)

val value_of : ?iterations:int -> Ddg.t -> Instr.id -> int -> Semantics.value
(** [value_of ddg i k]: the value instruction [i] produces in iteration
    [k] — for tests and debugging. *)

val equal_trace : by_name:(Instr.id -> string) -> by_name':(Instr.id -> string) -> trace -> trace -> bool
(** Trace equality matching stores by {e name} rather than id, so the
    original and the expanded DDG (extra receive nodes shift nothing —
    store ids are preserved — but ids are not relied upon) compare. *)
