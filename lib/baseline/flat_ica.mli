(** Flat (non-hierarchical) Instruction Cluster Assignment: the
    strawman HCA replaces (§4, §7).

    The whole machine is abstracted as one complete Pattern Graph
    ({!Hca_core.Problem.flat}: K{_64} on the reference machine) — every
    CN can potentially reach every other — with only the per-CN port
    limits as constraints, and a single SEE pass maps the entire DDG
    onto it.  This view is {e optimistic} (it forgets the MUX hierarchy,
    so a "legal" flat result may be unroutable on the real machine) and
    {e expensive} (the candidate set is all 64 CNs at every step); the
    scaling bench quantifies both effects. *)

open Hca_ddg
open Hca_machine
open Hca_core

type t = {
  outcome : See.outcome option;
  projected_mii : int option;  (** per-CN load + receive pressure estimate *)
  copies : int;
  ii_used : int;
  explored : int;
  runtime_s : float;
  error : string option;
}

val run : ?config:Config.t -> Dspfabric.t -> Ddg.t -> t
(** Same II-climbing protocol as {!Hca_core.Report.run}, for an
    apples-to-apples comparison. *)

val hierarchy_violations : Dspfabric.t -> See.outcome -> int
(** How many of the flat result's copies cross a set boundary the MUX
    capacities could not actually carry: {!Flat_score.mux_overflows}
    over the flow's real CN→CN arcs.  At every level a cluster set (a
    CN at the leaf) owns only its capacity of input wires, each tied to
    one source, so non-zero means the flat "solution" is not
    implementable on the real fabric. *)
