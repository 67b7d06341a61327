(** Resource table of a Pattern Graph node (§3: each PG node "is
    represented by its Resource Table").

    A PG node embraces a set of computation nodes; its table is the sum
    of the CN tables.  A DSPFabric CN exposes one ALU and one AG, so a
    level-0 node of the 64-CN instance has [alus = 16, ags = 16]. *)

open Hca_ddg

type t = {
  alus : int;
  ags : int;
}

val zero : t

val cn : t
(** One computation node: [{ alus = 1; ags = 1 }]. *)

val scale : int -> t -> t

val add : t -> t -> t

val of_unit_class : Opcode.unit_class -> t
(** The unit-resource demand of one instruction of that class. *)

val demand : Ddg.t -> Instr.id list -> t
(** Total per-iteration demand of a set of instructions. *)

val issue_slots : t -> int
(** Issue slots per cycle of a cluster with this table: CNs are
    single-issue machines exposing one ALU {e and} one AG, so a node of
    [q] CNs issues [q] operations per cycle — [max alus ags], which also
    covers the heterogeneous RCP clusters whose AG entry may be zero. *)

val fits : demand:t -> capacity:t -> ii:int -> bool
(** Modulo-scheduling feasibility: every FU class fits its capacity over
    the [ii]-cycle window {e and} the total operation count fits the
    issue slots ([issue_slots capacity * ii]). *)

val min_ii : demand:t -> capacity:t -> int
(** Smallest [ii] making [fits] true ([max_int] if capacity is zero in a
    demanded class). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
