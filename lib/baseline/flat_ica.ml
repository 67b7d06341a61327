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

let hierarchy_violations fabric outcome =
  let flow = Copy_flow.freeze (State.flow outcome.See.state) in
  Flat_score.mux_overflows fabric (fun arc ->
      for src = 0 to Dspfabric.total_cns fabric - 1 do
        List.iter (arc src) (Copy_flow.Frozen.real_out_neighbors flow src)
      done)
