(** Name-indexed access to the benchmark kernels, for the CLI, the
    benches and the examples. *)

val all : (string * (unit -> Hca_ddg.Ddg.t)) list
(** The four Table-1 loops, in paper order. *)

val extended : (string * (unit -> Hca_ddg.Ddg.t)) list
(** Every kernel: the Table-1 loops followed by {!Extended.all}. *)

val find : string -> (unit -> Hca_ddg.Ddg.t) option
(** Looks through {!extended}. *)

val names : string list
(** Table-1 names only. *)

val sorted : string list
(** Every findable kernel name (Table-1 and extended), alphabetically —
    what user-facing listings and error messages should print. *)
