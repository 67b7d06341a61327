(** Modulo Reservation Table (Rau 1994): the per-CN issue slots and the
    global DMA ports of one kernel window of [ii] cycles.

    A resource used at [cycle] occupies its column at [cycle mod ii] in
    every iteration, so two operations conflict iff they need the same
    resource in the same column. *)

type t

val create : ii:int -> cns:int -> dma_ports:int -> t

val ii : t -> int

val issue_free : t -> cn:int -> cycle:int -> bool

val reserve : t -> cn:int -> cycle:int -> memory:bool -> bool
(** Take the issue slot (and a DMA port when [memory]); [false] and no
    change when something is occupied. *)

val release : t -> cn:int -> cycle:int -> memory:bool -> unit
(** Inverse of {!reserve} for backtracking/eviction.
    @raise Invalid_argument when releasing an empty slot. *)

val occupancy : t -> float
(** Fraction of issue slots in use — a packing-quality diagnostic. *)
