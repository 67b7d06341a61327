(** The quality figures every flat baseline reports, computed one way
    for all of them. *)

open Hca_ddg
open Hca_machine

val score : Dspfabric.t -> Ddg.t -> int array -> int * int
(** [(copies, projected_mii)] of a CN placement (instruction id → CN):
    copies are the DDG edges whose endpoints sit on different CNs, and
    the projected MII is the heaviest CN's ops plus incoming copies,
    at least 1. *)

val mux_overflows : Dspfabric.t -> ((int -> int -> unit) -> unit) -> int
(** [mux_overflows fabric iter_arcs] counts, at every level, the
    distinct source cluster sets entering each cluster set (a CN at
    the leaf) beyond the level's MUX capacity.  [iter_arcs f] must
    call [f src dst] for every CN→CN arc that carries a value. *)
