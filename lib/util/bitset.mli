(** Fixed-width mutable bitset backed by [Bytes].

    Built for the SEE hot path: membership masks over small id spaces
    (PG nodes, clusters) where [set]/[clear]/[mem] must be
    allocation-free and a whole-set [reset] must be a single
    [Bytes.fill].  All indices are bounds-checked; width is fixed at
    [create]. *)

type t

val create : int -> t
(** [create width] is the empty set over [0 .. width-1]. *)

val set : t -> int -> unit

val clear : t -> int -> unit

val mem : t -> int -> bool

val reset : t -> unit
(** Clears every bit. *)

val copy : t -> t

val equal : t -> t -> bool

val cardinal : t -> int
(** Number of set bits. *)

val inter_count : t -> t -> int
(** [cardinal] of the intersection, without materialising it.
    @raise Invalid_argument on width mismatch. *)

val iter : (int -> unit) -> t -> unit
(** Calls [f] on every member, ascending. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over members, ascending. *)

val to_list : t -> int list
(** Members ascending; test/debug convenience. *)
