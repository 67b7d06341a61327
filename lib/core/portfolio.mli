(** Portfolio search: the heuristic knobs of {!Config.t} interact with
    the kernel shape in ways no single setting wins everywhere (§7:
    "ongoing research aims at tuning of the heuristics and cost
    functions").  The portfolio runs the full pipeline under a small set
    of deliberately diverse configurations and keeps the best legal
    clusterisation — smaller final MII first, fewer copies as the
    tie-break. *)

open Hca_ddg
open Hca_machine

val run_all :
  ?jobs:int ->
  ?memo:bool ->
  ?configs:(string * Config.t) list ->
  Dspfabric.t ->
  Ddg.t ->
  (string * Report.t) list
(** One report per configuration, in configuration order.  The
    configurations are independent, so [jobs > 1] evaluates them
    concurrently on a {!Hca_util.Domain_pool}; the returned list is
    merged back in configuration order, so the output is identical at
    every [jobs].  [memo] is forwarded to every {!Report.run}.
    @raise Invalid_argument on an empty configuration list. *)

val best_of : (string * Report.t) list -> Report.t * string
(** The winning report (and its configuration name) from a list as
    returned by {!run_all}: legal beats illegal, then smaller final
    MII, then fewer copies; earlier entries win ties.  Lets callers
    that need every report (e.g. the bench tables) avoid re-running
    the search just to learn the winner.
    @raise Invalid_argument on an empty list. *)

val run :
  ?jobs:int ->
  ?memo:bool ->
  ?configs:(string * Config.t) list ->
  Dspfabric.t ->
  Ddg.t ->
  Report.t * string
(** Best report plus the name of the winning configuration.  Falls back
    to the default configuration's report when nothing is legal.
    [jobs] as in {!run_all}: same winner at any value. *)
