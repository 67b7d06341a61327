open Hca_ddg
open Hca_machine
open Hca_core

type t = {
  outcome : See.outcome option;
  projected_mii : int option;
  copies : int;
  ii_used : int;
  explored : int;
  runtime_s : float;
  error : string option;
}

let run ?(config = Config.default) fabric ddg =
  let t0 = Hca_util.Clock.now () in
  let problem = Problem.flat fabric ddg in
  let lower = Mii.mii ddg (Dspfabric.resources fabric) in
  let explored = ref 0 in
  let rec climb ii last_error =
    if ii > config.Config.max_ii then (None, last_error)
    else
      match See.solve ~config problem ~ii with
      | Ok outcome ->
          explored := !explored + outcome.See.explored;
          (Some (ii, outcome), None)
      | Error e ->
          (* See counts states even on failure only via outcome; count
             the attempt cheaply as one state. *)
          incr explored;
          climb (ii + 1) (Some e)
  in
  match climb lower None with
  | None, err ->
      {
        outcome = None;
        projected_mii = None;
        copies = 0;
        ii_used = 0;
        explored = !explored;
        runtime_s = Hca_util.Clock.now () -. t0;
        error = err;
      }
  | Some (ii, outcome), _ ->
      let summary = State.summary outcome.See.state ~ii in
      {
        outcome = Some outcome;
        projected_mii = Some summary.Cost.projected_ii;
        copies = summary.Cost.copies;
        ii_used = ii;
        explored = !explored;
        runtime_s = Hca_util.Clock.now () -. t0;
        error = None;
      }

(* Re-check the flat copy flow against the real fabric: at every
   hierarchy level, a node (cluster set or CN) only owns [capacity]
   input wires, each tied to a single source.  A flat assignment that
   needs more distinct in-neighbours than that is not implementable. *)
let hierarchy_violations fabric outcome =
  let flow = State.flow outcome.See.state in
  let pg = Copy_flow.pg flow in
  let cns = Pattern_graph.size pg in
  let depth = Dspfabric.depth fabric in
  (* Group CN -> enclosing node index at each level: level l nodes are
     groups of cns_per_child CNs. *)
  let violations = ref 0 in
  for level = 0 to depth - 1 do
    let view = Dspfabric.level_view fabric ~level in
    let group_size = view.Dspfabric.cns_per_child in
    let groups = cns / group_size in
    let in_sets = Array.make groups [] in
    for src = 0 to cns - 1 do
      List.iter
        (fun dst ->
          let gs = src / group_size and gd = dst / group_size in
          if gs <> gd && not (List.mem gs in_sets.(gd)) then
            in_sets.(gd) <- gs :: in_sets.(gd))
        (Copy_flow.real_out_neighbors flow src)
    done;
    let cap = view.Dspfabric.mux_capacity in
    Array.iter
      (fun sources ->
        let overflow = List.length sources - cap in
        if overflow > 0 then violations := !violations + overflow)
      in_sets
  done;
  !violations
