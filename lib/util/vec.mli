(** Growable array, used by graph builders before freezing into fixed
    arrays.  Indices are dense and stable: [push] returns the index of the
    new element and indices are never reused. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

(** [push v x] appends [x] and returns its index. *)
val push : 'a t -> 'a -> int

val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val truncate : 'a t -> int -> unit
(** [truncate v n] drops every element past index [n-1].
    @raise Invalid_argument when [n] exceeds the current length. *)

val copy : 'a t -> 'a t
(** Independent copy; used when cloning owners of per-state vectors. *)

val copy_into : src:'a t -> dst:'a t -> unit
(** Makes [dst] hold [src]'s elements, reusing [dst]'s storage when it
    is large enough: the recycling twin of {!copy}. *)

(** [to_array v] copies the contents into a fresh fixed array. *)
val to_array : 'a t -> 'a array

val of_array : 'a array -> 'a t

val exists : ('a -> bool) -> 'a t -> bool
