open Hca_ddg
open Hca_machine
open Hca_core

type opts = {
  jobs : int;
  iterations : int;
  oracle_size_cap : int;
  oracle_cn_cap : int;
  oracle_conflicts : int;
}

let default_opts =
  {
    jobs = 1;
    iterations = 4;
    oracle_size_cap = 14;
    oracle_cn_cap = 16;
    oracle_conflicts = 20_000;
  }

type oracle_outcome =
  | Oracle_checked of { lower : int; achieved : int; optimum : int option }
  | Oracle_skipped of string

type sim_outcome =
  | Sim_checked of { stores : int; cycles : int }
  | Sim_skipped of string

type failure = { check : string; detail : string }

type t = {
  instance : Gen.instance;
  feasible : bool;
  final_mii : int option;
  oracle : oracle_outcome;
  sim : sim_outcome;
  failures : failure list;
}

let gap t =
  match t.oracle with
  | Oracle_checked { achieved; optimum = Some o; _ } -> Some (achieved - o)
  | _ -> None

(* (a) the emitted configuration must satisfy the independent checkers;
   its lowering (expansion + modulo schedule) feeds (c). *)
let check_coherency fail report =
  match (report.Report.result, report.Report.final_mii) with
  | None, _ | _, None ->
      if report.Report.legal then
        fail "coherency" "report.legal = true without a result";
      None
  | Some res, Some final_mii ->
      (match Coherency.check res with
      | Ok () ->
          if not report.Report.legal then
            fail "coherency" "checker accepts but report.legal = false"
      | Error msgs ->
          fail "coherency"
            (String.concat " | " (List.filteri (fun i _ -> i < 3) msgs)));
      let lowered =
        match Hca_sched.Lower.run res ~final_mii with
        | l -> Some l
        | exception e ->
            fail "postprocess" ("lowering raised: " ^ Printexc.to_string e);
            None
      in
      (match lowered with
      | None -> ()
      | Some l -> (
          match Postprocess.validate l.Hca_sched.Lower.expanded res with
          | Ok () -> ()
          | Error m -> fail "postprocess" m));
      lowered

(* (b) the heuristic may never beat the oracle's certified bound. *)
let check_oracle fail opts fabric ddg report =
  if Ddg.size ddg > opts.oracle_size_cap then Oracle_skipped "size"
  else if Dspfabric.total_cns fabric > opts.oracle_cn_cap then
    Oracle_skipped "cns"
  else
    match report.Report.result with
    | None -> Oracle_skipped "infeasible"
    | Some res -> (
        try
          let einst =
            Hca_exact.Encode.of_problem (Problem.flat fabric ddg)
          in
          let projected =
            Hca_exact.Encode.cluster_mii_of_assignment einst
              res.Hierarchy.cn_of_instr
          in
          let achieved = max report.Report.ini_mii projected in
          (* Seed the oracle's downward walk with the heuristic's own
             flat projection: in relaxed mode the incumbent is feasible
             by construction, so the conflict budget goes into
             tightening.  The verdict stays a pure function of the
             instance ([budget_s = infinity] + conflict budget). *)
          let o =
            Hca_exact.Oracle.run ~budget_s:infinity
              ~max_conflicts:opts.oracle_conflicts ~incumbent:achieved
              fabric ddg
          in
          let lower = o.Hca_exact.Oracle.lower_bound in
          if lower > achieved then
            fail "oracle"
              (Printf.sprintf
                 "heuristic flat projected MII %d beats certified lower bound \
                  %d"
                 achieved lower);
          (match o.Hca_exact.Oracle.status with
          | Unsat ->
              fail "oracle"
                "oracle refuted the whole range including all-on-one-CN"
          | Optimal | Feasible | Timeout -> ());
          let optimum =
            match o.Hca_exact.Oracle.status with
            | Optimal -> o.Hca_exact.Oracle.final_mii
            | _ -> None
          in
          Oracle_checked { lower; achieved; optimum }
        with e ->
          fail "oracle" ("exception: " ^ Printexc.to_string e);
          Oracle_skipped "exception")

(* (c) scheduled + mapped execution against the reference interpreter. *)
let check_semantics fail opts ddg lowered final_mii =
  match (lowered, final_mii) with
  | None, Some _ -> Sim_skipped "expand"
  | _, None -> Sim_skipped "infeasible"
  | Some { Hca_sched.Lower.expanded = exp; schedule }, Some _ -> (
      match schedule with
      | Error e -> Sim_skipped ("sched: " ^ e)
      | Ok schedule -> (
          match
            Hca_sim.Machine_sim.check_against_reference
              ~iterations:opts.iterations ~original:ddg
              ~expanded:exp.Postprocess.ddg
              ~cn_of_node:exp.Postprocess.cn_of_node ~schedule ()
          with
          | Ok stats ->
              Sim_checked
                {
                  stores = List.length stats.Hca_sim.Machine_sim.trace;
                  cycles = stats.Hca_sim.Machine_sim.cycles;
                }
          | Error e ->
              fail "semantics" e;
              Sim_skipped "trace-mismatch"
          | exception e ->
              fail "semantics" ("exception: " ^ Printexc.to_string e);
              Sim_skipped "exception"))

(* (d) the quality verdict must not depend on jobs, memo or tracing. *)
let check_invariance fail opts fabric ddg report =
  let base =
    if opts.jobs = 1 then report else Report.run ~jobs:1 fabric ddg
  in
  let base_s = Report.invariant_string base in
  if opts.jobs <> 1 && Report.invariant_string report <> base_s then
    fail "invariance"
      (Printf.sprintf "jobs=%d differs from jobs=1" opts.jobs);
  let j2 = Report.run ~jobs:2 fabric ddg in
  if Report.invariant_string j2 <> base_s then
    fail "invariance" "jobs=2 differs from jobs=1";
  if
    ( base.Report.cache_hits,
      base.Report.cache_misses,
      base.Report.reused_subproblems )
    <> (j2.Report.cache_hits, j2.Report.cache_misses, j2.Report.reused_subproblems)
  then fail "invariance" "memo counters differ between jobs=1 and jobs=2";
  let memo_off = Report.run ~jobs:1 ~memo:false fabric ddg in
  if Report.invariant_string memo_off <> base_s then
    fail "invariance" "memo=off differs from memo=on";
  let was_enabled = Hca_obs.Obs.enabled () in
  Hca_obs.Obs.enable ();
  let traced = Report.run ~jobs:1 fabric ddg in
  if not was_enabled then begin
    Hca_obs.Obs.disable ();
    Hca_obs.Obs.reset ()
  end;
  if Report.invariant_string traced <> base_s then
    fail "invariance" "traced run differs from untraced"

let run ?(opts = default_opts) (inst : Gen.instance) =
  let ddg = inst.Gen.ddg and fabric = inst.Gen.fabric in
  let failures = ref [] in
  let fail check detail = failures := { check; detail } :: !failures in
  let report = Report.run ~jobs:opts.jobs fabric ddg in
  let feasible = report.Report.final_mii <> None in
  let lowered = check_coherency fail report in
  let oracle = check_oracle fail opts fabric ddg report in
  let sim = check_semantics fail opts ddg lowered report.Report.final_mii in
  check_invariance fail opts fabric ddg report;
  {
    instance = inst;
    feasible;
    final_mii = report.Report.final_mii;
    oracle;
    sim;
    failures = List.rev !failures;
  }

let verdict_line t =
  let status =
    match t.failures with
    | [] -> if t.feasible then "ok" else "infeasible"
    | fs ->
        Printf.sprintf "FAIL[%s]"
          (String.concat ","
             (List.sort_uniq compare (List.map (fun f -> f.check) fs)))
  in
  let oracle =
    match t.oracle with
    | Oracle_skipped reason -> "skipped(" ^ reason ^ ")"
    | Oracle_checked { lower; achieved; optimum = Some o } ->
        Printf.sprintf "lower=%d achieved=%d optimum=%d gap=%d" lower achieved
          o (achieved - o)
    | Oracle_checked { lower; achieved; optimum = None } ->
        Printf.sprintf "lower=%d achieved=%d optimum=?" lower achieved
  in
  let sim =
    match t.sim with
    | Sim_checked { stores; cycles } ->
        Printf.sprintf "ok(stores=%d,cycles=%d)" stores cycles
    | Sim_skipped reason -> "skipped(" ^ reason ^ ")"
  in
  Printf.sprintf "seed %d: %s size=%d machine=%s final=%s oracle=%s sim=%s"
    t.instance.Gen.seed status
    (Ddg.size t.instance.Gen.ddg)
    (Dspfabric.name t.instance.Gen.fabric)
    (match t.final_mii with Some m -> string_of_int m | None -> "-")
    oracle sim
