(* Benchmark harness reproducing the paper's evaluation.

   Usage:
     bench/main.exe                 -- run every reproduction experiment
     bench/main.exe table1          -- Table 1 (the paper's only table)
     bench/main.exe fig_bandwidth   -- §5 claim: low bandwidth degrades MII
     bench/main.exe fig_scaling     -- §7 claim: flat ICA vs HCA state space
     bench/main.exe fig_rcp         -- Fig. 1: feasible topology on the RCP ring
     bench/main.exe fig_mapper      -- Fig. 9: broadcast merge + copy balancing
     bench/main.exe baselines       -- HCA vs unified / random / Chu partitioning
     bench/main.exe optgap          -- HCA vs the exact SAT oracle (lib/exact)
     bench/main.exe sched           -- modulo scheduling on top of HCA (future work)
     bench/main.exe ablation        -- design-choice ablations (DESIGN.md §6)

   The global flag --json switches the per-kernel experiments (table1,
   fig_scaling, extended, optgap) to newline-delimited JSON records on
   stdout — one object per kernel: the HCA report as Report.to_json
   writes it (optgap nests it under "hca"), the experiment's own
   figures, and the "config_hash" and "git" stamps — so the quality
   trajectory can be tracked across PRs by machines instead of
   eyeballs.  The rows carry no timings: one wall-clock sample cannot
   tell a change from noise, so speed is measured by perf/hcabench in
   alternating pairs (scripts/perf_pair.sh).  The text tables keep
   their time columns, which display the §7 claim.

   The global flag --jobs N (default: Domain.recommended_domain_count)
   sizes the domain pool: table1 fans out the portfolio configurations
   and fig_scaling/extended fan out over kernels; optgap runs its
   oracle searches one after another.  Results are emitted in the
   sequential order and are identical at every N; only the wall clock
   changes.

   Absolute numbers are NOT expected to match the paper (the substrate
   is a reconstruction); the shapes — who is legal, who degrades, where
   the bounds sit — are the reproduction target. *)

open Hca_ddg
open Hca_machine
open Hca_core

let reference = Dspfabric.reference

let json_mode = ref false

let jobs = ref (Hca_util.Domain_pool.default_jobs ())

(* optgap knobs for the CI smoke lane: override the per-kernel oracle
   budget and skip kernels above a size cap. *)
let oracle_budget = ref None

let max_n = ref None

let heading title = if not !json_mode then Printf.printf "\n=== %s ===\n%!" title

module Json = Hca_util.Json

(* Run-identification echo: every NDJSON row carries the configuration
   fingerprint and the git state it was produced under, so BENCH_*.json
   rows and trace files can be correlated after the fact. *)
let stamp_fields =
  lazy
    [
      ( "config_hash",
        (* [Dspfabric.id], not [name]: the name elides fan-outs and
           port counts, so two different machines could stamp alike. *)
        Json.Str
          (Hca_util.Stamp.hash (Config.default, Dspfabric.id reference)) );
      ("git", Json.Str (Hca_util.Stamp.git_describe ()));
    ]

(* One NDJSON record, flushed as it is produced. *)
let emit_json ~experiment ~kernel fields =
  print_endline (Json.row ~experiment ~kernel (fields @ Lazy.force stamp_fields))

let jint i = Json.Num (float_of_int i)

let jopt_int = Option.fold ~none:Json.Null ~some:jint

let jfloat = Json.fixed 6

let left h = (h, Hca_util.Tabular.Left)

let right h = (h, Hca_util.Tabular.Right)

(* ------------------------------------------------------------------ *)
(* Table 1: HCA test on four multimedia application loops.             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  heading "Table 1: HCA on four multimedia loops (N=M=K=8, 64 CNs)";
  let t =
    Hca_util.Tabular.create
      [
        left "Loop"; right "N_Instr"; right "MIIRec"; right "MIIRes";
        left "Legal"; right "Final MII"; right "Portfolio"; right "Optimum";
        right "Paper final";
      ]
  in
  let paper_final = [ 3; 3; 8; 6 ] in
  List.iter2
    (fun (name, f) paper ->
      let ddg = f () in
      (* One portfolio sweep per kernel: the "default" entry doubles as
         the plain [Report.run] row, so the default configuration is
         searched once, not twice. *)
      let reports = Portfolio.run_all ~jobs:!jobs reference ddg in
      let r = List.assoc "default" reports in
      let best, _ = Portfolio.best_of reports in
      let optimum = Hca_baseline.Unified.mii ddg reference in
      if !json_mode then
        emit_json ~experiment:"table1" ~kernel:name
          (Report.to_json r
          @ [
              ("portfolio_mii", jopt_int best.Report.final_mii);
              ("unified_mii", jint optimum);
            ])
      else
        Hca_util.Tabular.add_row t
          [
            name;
            string_of_int r.Report.n_instr;
            string_of_int r.Report.mii_rec;
            string_of_int r.Report.mii_res;
            (if r.Report.legal then "yes" else "no");
            (match r.Report.final_mii with Some m -> string_of_int m | None -> "-");
            (match best.Report.final_mii with
            | Some m when best.Report.legal -> string_of_int m
            | _ -> "-");
            string_of_int optimum;
            string_of_int paper;
          ])
    Hca_kernels.Registry.all paper_final;
  if not !json_mode then Hca_util.Tabular.print t

(* ------------------------------------------------------------------ *)
(* §5 bandwidth claim: sweep the MUX capacities.                       *)
(* ------------------------------------------------------------------ *)

let fig_bandwidth () =
  heading
    "Bandwidth sweep (§5): final MII as N=M=K shrinks ('-' = no legal \
     clusterization)";
  let widths = [ 16; 8; 4; 2; 1 ] in
  let t =
    Hca_util.Tabular.create
      (left "Loop" :: List.map (fun w -> right (Printf.sprintf "N=M=K=%d" w)) widths)
  in
  List.iter
    (fun (name, f) ->
      let cells =
        List.map
          (fun w ->
            let fabric = Dspfabric.make ~n:w ~m:w ~k:w () in
            let r = Report.run fabric (f ()) in
            match (r.Report.legal, r.Report.final_mii) with
            | true, Some m -> string_of_int m
            | _ -> "-")
          widths
      in
      Hca_util.Tabular.add_row t (name :: cells))
    Hca_kernels.Registry.all;
  Hca_util.Tabular.print t;
  Printf.printf
    "Expected shape: MII grows (or clusterization fails) as the wires thin \
     out.\n"

(* ------------------------------------------------------------------ *)
(* §7 scaling claim: flat ICA explodes, HCA cuts the state space.      *)
(* ------------------------------------------------------------------ *)

let fig_scaling () =
  heading "State-space scaling (§7): HCA vs flat K64 ICA";
  let t =
    Hca_util.Tabular.create
      [
        left "Loop"; right "HCA states"; right "HCA time(s)";
        right "Flat states"; right "Flat time(s)"; right "Flat MUX violations";
      ]
  in
  let rows =
    (* Independent kernels fan out; the row list comes back in registry
       order, so the table reads the same at every --jobs. *)
    Hca_util.Domain_pool.parallel_map ~jobs:!jobs
      (fun (name, f) ->
        let ddg = f () in
        (name, Report.run reference ddg, Hca_baseline.Flat_ica.run reference ddg))
      Hca_kernels.Registry.all
  in
  List.iter
    (fun (name, hca, flat) ->
      let violations =
        Option.map
          (Hca_baseline.Flat_ica.hierarchy_violations reference)
          flat.Hca_baseline.Flat_ica.outcome
      in
      if !json_mode then
        emit_json ~experiment:"fig_scaling" ~kernel:name
          (Report.to_json hca
          @ [
              ("flat_states", jint flat.Hca_baseline.Flat_ica.explored);
              ("flat_mux_violations", jopt_int violations);
            ])
      else
        Hca_util.Tabular.add_row t
          [
            name;
            string_of_int hca.Report.explored_states;
            Printf.sprintf "%.3f" hca.Report.runtime_s;
            string_of_int flat.Hca_baseline.Flat_ica.explored;
            Printf.sprintf "%.3f" flat.Hca_baseline.Flat_ica.runtime_s;
            (match violations with Some v -> string_of_int v | None -> "failed");
          ])
    rows;
  if not !json_mode then begin
    Hca_util.Tabular.print t;
    Printf.printf
      "The flat view is also optimistic: its MUX-violation count shows how \
       often\nthe 'legal' flat result could not actually be configured on the \
       fabric.\n"
  end

(* ------------------------------------------------------------------ *)
(* Fig. 1: the RCP ring picks a feasible topology under K ports.        *)
(* ------------------------------------------------------------------ *)

let fig_rcp () =
  heading "RCP ring (Fig. 1): single-level assignment under the input-port limit";
  let t =
    Hca_util.Tabular.create
      [
        left "Kernel"; right "ports"; left "Feasible"; right "II used";
        right "copies"; right "max in-degree";
      ]
  in
  let kernels =
    [ ("fir2dim", Hca_kernels.Fir2dim.ddg); ("idcthor", Hca_kernels.Idcthor.ddg) ]
  in
  List.iter
    (fun (name, f) ->
      List.iter
        (fun ports ->
          let rcp = Rcp.make ~in_ports:ports () in
          match Rcp_driver.solve rcp (f ()) with
          | Error _ ->
              Hca_util.Tabular.add_row t
                [ name; string_of_int ports; "no"; "-"; "-"; "-" ]
          | Ok r ->
              let in_degree = Array.make (Rcp.clusters rcp) 0 in
              List.iter
                (fun (_, dst) -> in_degree.(dst) <- in_degree.(dst) + 1)
                r.Rcp_driver.topology;
              Hca_util.Tabular.add_row t
                [
                  name;
                  string_of_int ports;
                  "yes";
                  string_of_int r.Rcp_driver.ii;
                  string_of_int r.Rcp_driver.copies;
                  string_of_int (Array.fold_left max 0 in_degree);
                ])
        [ 4; 2; 1 ])
    kernels;
  Hca_util.Tabular.print t;
  Printf.printf
    "The selected topology never uses more in-neighbours than the port \
     budget.\n"

(* ------------------------------------------------------------------ *)
(* Fig. 9: broadcast merging and copy balancing in the Mapper.          *)
(* ------------------------------------------------------------------ *)

let fig_mapper () =
  heading
    "Mapper policy (Fig. 9): broadcasts share one wire, spread mode balances \
     the rest";
  (* Rebuild the paper's worked example: cluster 0 produces x (broadcast
     to 1 and 2), z (broadcast to 2 and 3) and a, b, c all flowing to 1. *)
  let b = Ddg.Builder.create ~name:"fig9" () in
  let x = Ddg.Builder.add_instr b ~name:"x" Opcode.Add in
  let z = Ddg.Builder.add_instr b ~name:"z" Opcode.Add in
  let a = Ddg.Builder.add_instr b ~name:"a" Opcode.Add in
  let b' = Ddg.Builder.add_instr b ~name:"b" Opcode.Add in
  let c = Ddg.Builder.add_instr b ~name:"c" Opcode.Add in
  let consumer src =
    let u = Ddg.Builder.add_instr b Opcode.Mov in
    Ddg.Builder.add_dep b ~src ~dst:u;
    u
  in
  let ux1 = consumer x and ux2 = consumer x in
  let uz1 = consumer z and uz2 = consumer z in
  let ua = consumer a and ub = consumer b' and uc = consumer c in
  let ddg = Ddg.Builder.freeze b in
  let pg =
    Pattern_graph.complete ~name:"fig9"
      ~capacities:(Array.make 4 { Resource.alus = 8; ags = 8 })
      ~max_in:4
  in
  let problem = Problem.of_ddg ~name:"fig9" ~ddg ~pg () in
  let w = Cost.default_weights in
  let place node cluster st =
    Result.get_ok
      (State.try_assign st ~node ~cluster ~ii:8 ~target_ii:8 ~weights:w)
  in
  let st =
    State.create problem
    |> place x 0 |> place z 0 |> place a 0 |> place b' 0 |> place c 0
    |> place ux1 1 |> place ux2 2 |> place uz1 2 |> place uz2 3 |> place ua 1
    |> place ub 1 |> place uc 1
  in
  match
    Mapper.map ~consolidate:false ~problem ~state:st ~in_capacity:4
      ~out_capacity:4 ()
  with
  | Error e -> Printf.printf "mapper failed: %s\n" e
  | Ok res ->
      let model = res.Mapper.model in
      List.iter
        (fun wire ->
          Printf.printf "  wire %d of cluster 0 -> clusters [%s] carrying [%s]\n"
            wire
            (String.concat ","
               (List.map string_of_int (Machine_model.wire_sinks model wire)))
            (String.concat ","
               (List.map
                  (fun v -> (Ddg.instr ddg v).Instr.name)
                  (Machine_model.wire_values model wire))))
        (Machine_model.used_out_wires model 0);
      Printf.printf "  max wire load: %d\n" res.Mapper.max_wire_load

(* ------------------------------------------------------------------ *)
(* Baselines: HCA vs unified optimum vs random floor vs Chu partition. *)
(* ------------------------------------------------------------------ *)

let baselines () =
  heading "Baselines: projected/achieved MII and copies";
  let t =
    Hca_util.Tabular.create
      [
        left "Loop"; right "Unified opt"; right "HCA final"; right "HCA copies";
        right "Chu proj."; right "Chu copies"; right "Chu viol.";
        right "Random proj."; right "Random copies";
      ]
  in
  List.iter
    (fun (name, f) ->
      let ddg = f () in
      let opt = Hca_baseline.Unified.mii ddg reference in
      let hca = Report.run reference ddg in
      let ii = max 4 hca.Report.ii_used in
      let chu = Hca_baseline.Chu_partition.run reference ddg ~ii in
      let rand = Hca_baseline.Random_assign.run reference ddg ~ii in
      let cell field = function
        | Ok r -> string_of_int (field r)
        | Error _ -> "-"
      in
      let module C = Hca_baseline.Chu_partition in
      let module R = Hca_baseline.Random_assign in
      Hca_util.Tabular.add_row t
        [
          name;
          string_of_int opt;
          (match hca.Report.final_mii with Some m -> string_of_int m | None -> "-");
          string_of_int hca.Report.copies;
          cell (fun c -> c.C.projected_mii) chu;
          cell (fun c -> c.C.copies) chu;
          cell (fun c -> c.C.violations) chu;
          cell (fun r -> r.R.projected_mii) rand;
          cell (fun r -> r.R.copies) rand;
        ])
    Hca_kernels.Registry.all;
  Hca_util.Tabular.print t

(* ------------------------------------------------------------------ *)
(* Optimality gap: HCA vs the exact SAT oracle (lib/exact).             *)
(* ------------------------------------------------------------------ *)

let optgap () =
  heading
    "Optimality gap: HCA vs the exact SAT oracle on a scaled-down fabric \
     (8 CNs, N=M=K=4)";
  let fabric = Dspfabric.make ~fanouts:[| 2; 2; 2 |] ~n:4 ~m:4 ~k:4 () in
  let synthetic size seed =
    ( Printf.sprintf "syn%d" size,
      fun () ->
        Hca_kernels.Synthetic.generate
          {
            Hca_kernels.Synthetic.default with
            size;
            layers = 3;
            recurrences = 1;
            seed;
          } )
  in
  (* Small kernels the oracle can close; the Table-1 loops then show the
     graceful degradation to bounded-feasible under the time budget. *)
  let kernels =
    [ synthetic 10 1; synthetic 14 2; synthetic 18 3 ]
    @ Hca_kernels.Registry.all
  in
  let t =
    Hca_util.Tabular.create
      [
        left "Kernel"; right "N_Instr"; right "HCA final"; left "Oracle";
        right "Oracle MII"; right "Lower bound"; right "Gap <=";
        right "Probes"; right "Reused"; right "SAT time(s)";
      ]
  in
  let kernels =
    match !max_n with
    | None -> kernels
    | Some mx -> List.filter (fun (_, f) -> Ddg.size (f ()) <= mx) kernels
  in
  List.iter
    (fun (name, f) ->
      let ddg = f () in
      let n = Ddg.size ddg in
      let budget_s =
        match !oracle_budget with
        | Some b -> b
        | None -> if n <= 24 then 10. else 5.
      in
      let hca = Report.run fabric ddg in
      (* Seed the oracle's downward walk with the heuristic's result: in
         relaxed mode the incumbent is feasible by construction, so the
         budget is spent tightening the bound, not rediscovering a
         model. *)
      let incumbent = if hca.Report.legal then hca.Report.final_mii else None in
      let oracle = Hca_exact.Oracle.run ~budget_s ?incumbent fabric ddg in
      let gap =
        match (hca.Report.final_mii, hca.Report.legal) with
        | Some achieved, true ->
            (* Against the proven optimum when we have one, else against
               the certified lower bound — an upper bound on the gap. *)
            let denom =
              match (oracle.Hca_exact.Oracle.status, oracle.Hca_exact.Oracle.final_mii) with
              | Hca_exact.Oracle.Optimal, Some o -> Some o
              | _ -> Some oracle.Hca_exact.Oracle.lower_bound
            in
            Option.map
              (fun o -> Hca_baseline.Unified.optgap ~achieved ~oracle:o)
              denom
        | _ -> None
      in
      if !json_mode then
        emit_json ~experiment:"optgap" ~kernel:name
          [
            ("hca", Json.Obj (Report.to_json hca));
            ("status", Json.Str (Hca_exact.Oracle.status_to_string oracle.Hca_exact.Oracle.status));
            ("final_mii", jopt_int oracle.Hca_exact.Oracle.final_mii);
            ("lower_bound", jint oracle.Hca_exact.Oracle.lower_bound);
            ("copies", jint oracle.Hca_exact.Oracle.copies);
            ("gap", Option.fold ~none:Json.Null ~some:jfloat gap);
            ("sat_conflicts", jint oracle.Hca_exact.Oracle.explored);
            ("sat_propagations", jint oracle.Hca_exact.Oracle.propagations);
            ("sat_learnt", jint oracle.Hca_exact.Oracle.learnt_total);
            ("sat_reused_hits", jint oracle.Hca_exact.Oracle.reused_hits);
            ("sat_probes", jint (List.length oracle.Hca_exact.Oracle.probes));
          ]
      else
        Hca_util.Tabular.add_row t
          [
            name;
            string_of_int n;
            (match hca.Report.final_mii with
            | Some m when hca.Report.legal -> string_of_int m
            | _ -> "-");
            Hca_exact.Oracle.status_to_string oracle.Hca_exact.Oracle.status;
            (match oracle.Hca_exact.Oracle.final_mii with
            | Some m -> string_of_int m
            | None -> "-");
            string_of_int oracle.Hca_exact.Oracle.lower_bound;
            (match gap with Some g -> Printf.sprintf "%.2f" g | None -> "-");
            string_of_int (List.length oracle.Hca_exact.Oracle.probes);
            string_of_int oracle.Hca_exact.Oracle.reused_hits;
            Printf.sprintf "%.2f" oracle.Hca_exact.Oracle.runtime_s;
          ])
    kernels;
  if not !json_mode then begin
    Hca_util.Tabular.print t;
    Printf.printf
      "'optimal' rows certify the flat projected-MII optimum; on the rest \
       the\ngap column is an upper bound computed against the certified \
       lower bound.\n"
  end

(* ------------------------------------------------------------------ *)
(* Modulo scheduling on top of HCA: the paper's future work, validated. *)
(* ------------------------------------------------------------------ *)

let sched () =
  heading "Kernel-only modulo scheduling on the HCA placement (paper future work)";
  let t =
    Hca_util.Tabular.create
      [
        left "Loop"; right "final MII"; right "achieved II"; right "stages";
        right "occupancy"; right "max live"; right "speedup@100";
      ]
  in
  List.iter
    (fun (name, f) ->
      let ddg = f () in
      let r = Report.run reference ddg in
      match (r.Report.result, r.Report.final_mii) with
      | Some res, Some final -> (
          let { Hca_sched.Lower.expanded = exp; schedule } =
            Hca_sched.Lower.run res ~final_mii:final
          in
          match schedule with
          | Error e ->
              Hca_util.Tabular.add_row t
                [ name; string_of_int final; e; "-"; "-"; "-"; "-" ]
          | Ok s ->
              let koms = Hca_sched.Koms.analyse s in
              let rp =
                Hca_sched.Regpress.analyse ~ddg:exp.Postprocess.ddg
                  ~cn_of_instr:exp.Postprocess.cn_of_node
                  ~copy_latency:Hca_sched.Lower.copy_latency s
              in
              let sl = Graph_algo.critical_path ddg + 1 in
              Hca_util.Tabular.add_row t
                [
                  name;
                  string_of_int final;
                  string_of_int s.Hca_sched.Modulo.ii;
                  string_of_int s.Hca_sched.Modulo.stages;
                  Printf.sprintf "%.2f" s.Hca_sched.Modulo.occupancy;
                  string_of_int rp.Hca_sched.Regpress.max_live;
                  Printf.sprintf "%.1fx"
                    (Hca_sched.Koms.speedup_vs_unpipelined koms ~trip:100
                       ~schedule_length:sl);
                ])
      | _ -> Hca_util.Tabular.add_row t [ name; "-"; "-"; "-"; "-"; "-"; "-" ])
    Hca_kernels.Registry.all;
  Hca_util.Tabular.print t

(* ------------------------------------------------------------------ *)
(* Ablations over the design choices listed in DESIGN.md §6.            *)
(* ------------------------------------------------------------------ *)

let ablation () =
  heading "Ablations: final MII under degraded configurations (fir2dim / idcthor)";
  let variants =
    [
      ("default", Config.default);
      ("greedy (beam 1)", { Config.default with beam_width = 1; candidate_width = 1 });
      ("beam 16", { Config.default with beam_width = 16 });
      ("no router", { Config.default with enable_router = false });
      ("criticality order", { Config.default with priority = Config.Criticality });
      ("source order", { Config.default with priority = Config.Source_order });
      ("spread wires", { Config.default with mapper_spread = true });
      ("no backtracking", { Config.default with max_alternatives = 1 });
    ]
  in
  let kernels =
    [ ("fir2dim", Hca_kernels.Fir2dim.ddg); ("idcthor", Hca_kernels.Idcthor.ddg) ]
  in
  let t =
    Hca_util.Tabular.create
      (left "Variant"
      :: List.concat_map
           (fun (n, _) -> [ right (n ^ " MII"); right "legal" ])
           kernels)
  in
  List.iter
    (fun (vname, config) ->
      let cells =
        List.concat_map
          (fun (_, f) ->
            let r = Report.run ~config reference (f ()) in
            [
              (match r.Report.final_mii with Some m -> string_of_int m | None -> "-");
              (if r.Report.legal then "yes" else "no");
            ])
          kernels
      in
      Hca_util.Tabular.add_row t (vname :: cells))
    variants;
  Hca_util.Tabular.print t

(* ------------------------------------------------------------------ *)
(* Semantic equivalence: simulate the compiled kernel.                  *)
(* ------------------------------------------------------------------ *)

let simulate () =
  heading
    "Machine simulation: the clusterised + scheduled kernel computes the \
     reference values";
  let t =
    Hca_util.Tabular.create
      [
        left "Loop"; left "Trace match"; right "II"; right "stages in flight";
        right "cycles (8 iters)"; right "dyn. instrs";
      ]
  in
  List.iter
    (fun (name, f) ->
      let ddg = f () in
      let r = Report.run reference ddg in
      match (r.Report.result, r.Report.final_mii) with
      | Some res, Some final -> (
          let { Hca_sched.Lower.expanded = exp; schedule } =
            Hca_sched.Lower.run res ~final_mii:final
          in
          match schedule with
          | Error e ->
              Hca_util.Tabular.add_row t [ name; e; "-"; "-"; "-"; "-" ]
          | Ok schedule -> (
              match
                Hca_sim.Machine_sim.check_against_reference ~iterations:8
                  ~original:ddg ~expanded:exp.Postprocess.ddg
                  ~cn_of_node:exp.Postprocess.cn_of_node ~schedule ()
              with
              | Error e ->
                  Hca_util.Tabular.add_row t
                    [ name; "DIVERGED: " ^ e; "-"; "-"; "-"; "-" ]
              | Ok stats ->
                  Hca_util.Tabular.add_row t
                    [
                      name;
                      "yes";
                      string_of_int schedule.Hca_sched.Modulo.ii;
                      string_of_int stats.Hca_sim.Machine_sim.max_inflight;
                      string_of_int stats.Hca_sim.Machine_sim.cycles;
                      string_of_int stats.Hca_sim.Machine_sim.issued;
                    ]))
      | _ -> Hca_util.Tabular.add_row t [ name; "no clusterisation"; "-"; "-"; "-"; "-" ])
    Hca_kernels.Registry.all;
  Hca_util.Tabular.print t

(* ------------------------------------------------------------------ *)
(* Extended workloads: loop shapes beyond Table 1.                      *)
(* ------------------------------------------------------------------ *)

let extended () =
  heading "Extended kernels: loop shapes beyond Table 1";
  let t =
    Hca_util.Tabular.create
      [
        left "Kernel"; right "N_Instr"; right "ini MII"; left "Legal";
        right "Final MII"; right "copies"; right "wires";
      ]
  in
  let rows =
    Hca_util.Domain_pool.parallel_map ~jobs:!jobs
      (fun (name, f) -> (name, Report.run reference (f ())))
      Hca_kernels.Extended.all
  in
  List.iter
    (fun (name, r) ->
      let wires =
        match r.Report.result with
        | Some res -> Some (Topology.wire_count (Topology.of_result res))
        | None -> None
      in
      if !json_mode then
        emit_json ~experiment:"extended" ~kernel:name
          (Report.to_json r @ [ ("wires", jopt_int wires) ])
      else
        Hca_util.Tabular.add_row t
          [
            name;
            string_of_int r.Report.n_instr;
            string_of_int r.Report.ini_mii;
            (if r.Report.legal then "yes" else "no");
            (match r.Report.final_mii with Some m -> string_of_int m | None -> "-");
            string_of_int r.Report.copies;
            (match wires with Some w -> string_of_int w | None -> "-");
          ])
    rows;
  if not !json_mode then Hca_util.Tabular.print t

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("fig_bandwidth", fig_bandwidth);
    ("fig_scaling", fig_scaling);
    ("fig_rcp", fig_rcp);
    ("fig_mapper", fig_mapper);
    ("baselines", baselines);
    ("optgap", optgap);
    ("extended", extended);
    ("sched", sched);
    ("simulate", simulate);
    ("ablation", ablation);
  ]

let () =
  let bad_jobs v =
    Printf.eprintf "bad --jobs value %S: expected a positive integer\n" v;
    exit 2
  in
  let set_jobs v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> jobs := n
    | _ -> bad_jobs v
  in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: rest ->
        json_mode := true;
        parse acc rest
    | "--jobs" :: v :: rest ->
        set_jobs v;
        parse acc rest
    | [ "--jobs" ] -> bad_jobs ""
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
        set_jobs (String.sub a 7 (String.length a - 7));
        parse acc rest
    | "--oracle-budget" :: v :: rest ->
        (match float_of_string_opt v with
        | Some b when b > 0. -> oracle_budget := Some b
        | _ ->
            Printf.eprintf
              "bad --oracle-budget value %S: expected positive seconds\n" v;
            exit 2);
        parse acc rest
    | "--max-n" :: v :: rest ->
        (match int_of_string_opt v with
        | Some m when m >= 1 -> max_n := Some m
        | _ ->
            Printf.eprintf
              "bad --max-n value %S: expected a positive integer\n" v;
            exit 2);
        parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  match parse [] (List.tl (Array.to_list Sys.argv)) with
  | _ :: _ as names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %S; available: %s\n" name
                (String.concat ", " (List.map fst experiments));
              exit 1)
        names
  | _ -> List.iter (fun (_, f) -> f ()) experiments
