(* Tests for the comparison baselines: the unified-machine optimum, the
   flat (non-hierarchical) ICA, the random floor and the Chu-style
   multilevel partitioner. *)

open Hca_machine
open Hca_baseline

let fabric = Dspfabric.reference

let test_unified_matches_table1 () =
  (* The "theoretical optimum" column implied by §5. *)
  List.iter
    (fun (name, expected) ->
      let ddg = (Option.get (Hca_kernels.Registry.find name)) () in
      Alcotest.(check int) name expected (Unified.mii ddg fabric))
    [ ("fir2dim", 3); ("idcthor", 2); ("mpeg2inter", 6); ("h264deblocking", 4) ]

let test_unified_gap () =
  let ddg = Hca_kernels.Fir2dim.ddg () in
  Alcotest.(check (float 1e-9)) "gap 2x" 2.0 (Unified.gap ddg fabric ~final_mii:6)

let test_flat_ica_runs () =
  let ddg = Hca_kernels.Fir2dim.ddg () in
  let res = Flat_ica.run ~config:Hca_core.Config.greedy fabric ddg in
  match res.Flat_ica.outcome with
  | None -> Alcotest.failf "flat ICA failed: %s" (Option.value ~default:"?" res.Flat_ica.error)
  | Some outcome ->
      Alcotest.(check bool) "complete" true (Hca_core.State.is_complete outcome.Hca_core.See.state);
      Alcotest.(check bool) "some copies" true (res.Flat_ica.copies > 0);
      Alcotest.(check bool) "projected known" true (res.Flat_ica.projected_mii <> None)

let test_flat_ica_violations_detected () =
  (* The flat view ignores the MUX hierarchy; on a communication-heavy
     kernel its assignment generally crosses set boundaries more ways
     than N wires allow.  At minimum the count must be well defined. *)
  let ddg = Hca_kernels.Idcthor.ddg () in
  let res = Flat_ica.run ~config:Hca_core.Config.greedy fabric ddg in
  match res.Flat_ica.outcome with
  | None -> () (* failing outright also demonstrates the point *)
  | Some outcome ->
      let v = Flat_ica.hierarchy_violations fabric outcome in
      Alcotest.(check bool) "non-negative" true (v >= 0)

(* The flat view is the machine's own: on a heterogeneous description
   every CN of the complete PG flat ICA searches carries that CN's
   resource table, as in the oracle's encoding of the same view. *)
let test_flat_view_keeps_cn_tables () =
  let machine = Hca_gen.Gen.desc ~hetero:1.0 ~seed:3 () in
  Alcotest.(check bool) "heterogeneous" false (Machine_desc.is_uniform machine);
  let ddg = Hca_gen.Gen.ddg ~seed:3 () in
  let capacities pg =
    List.map
      (fun (nd : Pattern_graph.node) -> nd.capacity)
      (Pattern_graph.regular_nodes pg)
  in
  let tables = Array.to_list (Machine_desc.tables machine) in
  Alcotest.(check bool) "Problem.flat capacities = CN tables" true
    (capacities (Hca_core.Problem.pg (Hca_core.Problem.flat machine ddg))
    = tables);
  let res = Flat_ica.run ~config:Hca_core.Config.greedy machine ddg in
  match res.Flat_ica.outcome with
  | None ->
      Alcotest.failf "flat ICA failed: %s"
        (Option.value ~default:"?" res.Flat_ica.error)
  | Some outcome ->
      let flow = Hca_core.State.flow outcome.Hca_core.See.state in
      Alcotest.(check bool) "searched capacities = CN tables" true
        (capacities (Copy_flow.pg flow) = tables)

(* Hand-built outcome with a known violation count: two producers in
   different level-0 sets both feeding one consumer in a third set.
   With every MUX capacity forced to 1, the consumer's set pulls from
   two foreign sets at level 0 (1 overflow) and at level 1 (1 more);
   the leaf crossbar admits 2 incoming wires per CN, so no leaf
   overflow — exactly 2 violations.  With capacity 8 everywhere the
   same placement is clean. *)
let two_feeders_outcome fabric16 =
  let open Hca_ddg in
  let b = Ddg.Builder.create ~name:"two-feeders" () in
  let p0 = Ddg.Builder.add_instr b ~name:"p0" Opcode.Add in
  let p1 = Ddg.Builder.add_instr b ~name:"p1" Opcode.Add in
  let c = Ddg.Builder.add_instr b ~name:"c" Opcode.Add in
  Ddg.Builder.add_dep b ~src:p0 ~dst:c;
  Ddg.Builder.add_dep b ~src:p1 ~dst:c;
  let ddg = Ddg.Builder.freeze b in
  let cns = Dspfabric.total_cns fabric16 in
  let pg =
    Pattern_graph.complete ~name:"flat16"
      ~capacities:(Array.make cns Resource.cn)
      ~max_in:2
  in
  let problem = Hca_core.Problem.of_ddg ~name:"flat16" ~ddg ~pg () in
  let weights = Hca_core.Cost.default_weights in
  let st = Hca_core.State.create problem in
  let assign st node cluster =
    match
      Hca_core.State.try_assign st ~node ~cluster ~ii:4 ~target_ii:4 ~weights
    with
    | Ok st -> st
    | Error e -> Alcotest.failf "assign %d -> CN%d: %s" node cluster e
  in
  let st = assign st p0 0 in
  let st = assign st p1 4 in
  let st = assign st c 8 in
  {
    Hca_core.See.state = st;
    alternatives = [];
    explored = 0;
    routed = 0;
    window = Hca_core.State.window st;
  }

let test_hierarchy_violations_counted () =
  let fabric16 = Dspfabric.make ~fanouts:[| 4; 2; 2 |] ~n:1 ~m:1 ~k:1 () in
  let outcome = two_feeders_outcome fabric16 in
  Alcotest.(check int) "two overflows" 2
    (Flat_ica.hierarchy_violations fabric16 outcome)

let test_hierarchy_violations_none_when_wide () =
  let fabric16 = Dspfabric.make ~fanouts:[| 4; 2; 2 |] ~n:8 ~m:8 ~k:8 () in
  let outcome = two_feeders_outcome fabric16 in
  Alcotest.(check int) "fits the muxes" 0
    (Flat_ica.hierarchy_violations fabric16 outcome)

let test_random_assign_legal_budget () =
  let ddg = Hca_kernels.Fir2dim.ddg () in
  match Random_assign.run fabric ddg ~ii:2 with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let load = Array.make 64 0 in
      Array.iter (fun c -> load.(c) <- load.(c) + 1) r.Random_assign.cn_of_instr;
      Array.iter
        (fun l -> Alcotest.(check bool) "issue budget" true (l <= 2))
        load

let test_random_assign_deterministic () =
  let ddg = Hca_kernels.Fir2dim.ddg () in
  let a = Result.get_ok (Random_assign.run ~seed:5 fabric ddg ~ii:4) in
  let b = Result.get_ok (Random_assign.run ~seed:5 fabric ddg ~ii:4) in
  Alcotest.(check (array int)) "same seed same result"
    a.Random_assign.cn_of_instr b.Random_assign.cn_of_instr

let test_random_assign_too_tight () =
  let ddg = Hca_kernels.H264deblock.ddg () in
  match Random_assign.run fabric ddg ~ii:3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "214 ops cannot fit 192 slots"

let test_random_worse_than_hca () =
  (* The random floor must pay far more copies than HCA's clusterisation. *)
  let ddg = Hca_kernels.Fir2dim.ddg () in
  let report = Hca_core.Report.run fabric ddg in
  let rand = Result.get_ok (Random_assign.run fabric ddg ~ii:report.Hca_core.Report.ii_used) in
  match report.Hca_core.Report.result with
  | None -> Alcotest.fail "hca failed"
  | Some _ ->
      Alcotest.(check bool) "hca beats random pressure" true
        (Option.get report.Hca_core.Report.final_mii
        <= rand.Random_assign.projected_mii)

let test_chu_partition_runs () =
  let ddg = Hca_kernels.Idcthor.ddg () in
  match Chu_partition.run fabric ddg ~ii:4 with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Array.iter
        (fun c -> Alcotest.(check bool) "placed" true (c >= 0 && c < 64))
        r.Chu_partition.cn_of_instr;
      Alcotest.(check bool) "copies counted" true (r.Chu_partition.copies > 0)

let test_chu_partition_balance () =
  let ddg = Hca_kernels.H264deblock.ddg () in
  match Chu_partition.run fabric ddg ~ii:4 with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let load = Array.make 64 0 in
      Array.iter (fun c -> load.(c) <- load.(c) + 1) r.Chu_partition.cn_of_instr;
      Array.iter
        (fun l -> Alcotest.(check bool) "leaf capacity" true (l <= 4))
        load

let test_chu_beats_random_on_copies () =
  let ddg = Hca_kernels.Idcthor.ddg () in
  let chu = Result.get_ok (Chu_partition.run fabric ddg ~ii:4) in
  let rand = Result.get_ok (Random_assign.run fabric ddg ~ii:4) in
  Alcotest.(check bool) "affinity clustering helps" true
    (chu.Chu_partition.copies < rand.Random_assign.copies)

let () =
  Alcotest.run "baseline"
    [
      ( "unified",
        [
          Alcotest.test_case "table1 optima" `Quick test_unified_matches_table1;
          Alcotest.test_case "gap" `Quick test_unified_gap;
        ] );
      ( "flat-ica",
        [
          Alcotest.test_case "runs" `Slow test_flat_ica_runs;
          Alcotest.test_case "violations" `Slow test_flat_ica_violations_detected;
          Alcotest.test_case "violations counted" `Quick
            test_hierarchy_violations_counted;
          Alcotest.test_case "violations none when wide" `Quick
            test_hierarchy_violations_none_when_wide;
          Alcotest.test_case "flat view keeps CN tables" `Quick
            test_flat_view_keeps_cn_tables;
        ] );
      ( "random",
        [
          Alcotest.test_case "budget" `Quick test_random_assign_legal_budget;
          Alcotest.test_case "deterministic" `Quick test_random_assign_deterministic;
          Alcotest.test_case "too tight" `Quick test_random_assign_too_tight;
          Alcotest.test_case "worse than HCA" `Slow test_random_worse_than_hca;
        ] );
      ( "chu",
        [
          Alcotest.test_case "runs" `Quick test_chu_partition_runs;
          Alcotest.test_case "balance" `Quick test_chu_partition_balance;
          Alcotest.test_case "beats random" `Quick test_chu_beats_random_on_copies;
        ] );
    ]
