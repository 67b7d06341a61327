(** Incremental FNV-1a signature hashing over machine words.

    Fingerprints kernel content ([Ddg.content_id], the daemon's content
    labels) and committed placements ([Report.invariant_string]).  A
    signature is a plain [int]: equal structures always hash equal, so
    a hash mismatch proves two structures differ; a match alone proves
    nothing. *)

type t

val create : ?seed:int -> unit -> t

val add_int : t -> int -> unit

val add_int_array : t -> int array -> unit

val add_string : t -> string -> unit
(** Length-prefixed over the bytes — unlike [Hashtbl.hash], which
    samples a bounded prefix, every byte participates; used to digest
    client-supplied kernel text into a cache-safe name. *)

val value : t -> int
(** The accumulated signature, non-negative. *)

val ints : int list -> int
(** One-shot signature of an int list, length-prefixed so [[1];[2]]
    and [[1;2]] never collide. *)
