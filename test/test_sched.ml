(* Tests for the modulo scheduler built on top of the clusterised DDG:
   the reservation table, Rau's iterative scheme, the kernel-only
   statistics and the register-pressure analysis. *)

open Hca_ddg
open Hca_sched

(* --- mrt -------------------------------------------------------------- *)

let test_mrt_reserve_release () =
  let t = Mrt.create ~ii:4 ~cns:2 ~dma_ports:1 in
  Alcotest.(check bool) "free" true (Mrt.issue_free t ~cn:0 ~cycle:6);
  Alcotest.(check bool) "reserve" true (Mrt.reserve t ~cn:0 ~cycle:6 ~memory:false);
  Alcotest.(check bool) "column taken" false (Mrt.issue_free t ~cn:0 ~cycle:2);
  Alcotest.(check bool) "other cn free" true (Mrt.issue_free t ~cn:1 ~cycle:2);
  Alcotest.(check bool) "conflict" false (Mrt.reserve t ~cn:0 ~cycle:10 ~memory:false);
  Mrt.release t ~cn:0 ~cycle:6 ~memory:false;
  Alcotest.(check bool) "released" true (Mrt.issue_free t ~cn:0 ~cycle:2)

let test_mrt_dma () =
  let t = Mrt.create ~ii:2 ~cns:4 ~dma_ports:1 in
  Alcotest.(check bool) "mem 1" true (Mrt.reserve t ~cn:0 ~cycle:0 ~memory:true);
  (* Same column, different CN: DMA port exhausted. *)
  Alcotest.(check bool) "dma full" false (Mrt.reserve t ~cn:1 ~cycle:2 ~memory:true);
  (* Other column is fine. *)
  Alcotest.(check bool) "other column" true (Mrt.reserve t ~cn:1 ~cycle:1 ~memory:true)

let test_mrt_occupancy () =
  let t = Mrt.create ~ii:2 ~cns:2 ~dma_ports:8 in
  ignore (Mrt.reserve t ~cn:0 ~cycle:0 ~memory:false);
  Alcotest.(check (float 1e-9)) "quarter" 0.25 (Mrt.occupancy t)

let test_mrt_release_unreserved () =
  let t = Mrt.create ~ii:2 ~cns:1 ~dma_ports:1 in
  Alcotest.check_raises "release empty"
    (Invalid_argument "Mrt.release: slot not reserved") (fun () ->
      Mrt.release t ~cn:0 ~cycle:0 ~memory:false)

(* --- modulo ----------------------------------------------------------- *)

let chain_on_one_cn n =
  let b = Ddg.Builder.create ~name:"chain" () in
  let ids = Array.init n (fun _ -> Ddg.Builder.add_instr b Opcode.Add) in
  for i = 0 to n - 2 do
    Ddg.Builder.add_dep b ~src:ids.(i) ~dst:ids.(i + 1)
  done;
  (Ddg.Builder.freeze b, Array.make n 0)

let test_modulo_single_cn_chain () =
  let ddg, cn_of_instr = chain_on_one_cn 4 in
  match Modulo.run ~ddg ~cn_of_instr ~cns:1 ~dma_ports:8 ~start_ii:1 () with
  | Error e -> Alcotest.fail e
  | Ok s ->
      (* 4 dependent ops on one single-issue CN: ii 4. *)
      Alcotest.(check int) "ii" 4 s.Modulo.ii;
      Alcotest.(check bool) "valid" true
        (Modulo.validate ~ddg ~cn_of_instr ~copy_latency:1 s = Ok ())

let test_modulo_parallel_ops () =
  let b = Ddg.Builder.create ~name:"par" () in
  for _ = 1 to 4 do
    ignore (Ddg.Builder.add_instr b Opcode.Add)
  done;
  let ddg = Ddg.Builder.freeze b in
  let cn_of_instr = Array.init 4 (fun i -> i) in
  match Modulo.run ~ddg ~cn_of_instr ~cns:4 ~dma_ports:8 ~start_ii:1 () with
  | Error e -> Alcotest.fail e
  | Ok s -> Alcotest.(check int) "ii 1" 1 s.Modulo.ii

let test_modulo_recurrence_bound () =
  let b = Ddg.Builder.create ~name:"rec" () in
  let x = Ddg.Builder.add_instr b Opcode.Add in
  let y = Ddg.Builder.add_instr b Opcode.Add in
  Ddg.Builder.add_dep b ~src:x ~dst:y;
  Ddg.Builder.add_dep b ~distance:1 ~src:y ~dst:x;
  let ddg = Ddg.Builder.freeze b in
  let cn_of_instr = [| 0; 1 |] in
  match Modulo.run ~ddg ~cn_of_instr ~cns:2 ~dma_ports:8 ~start_ii:1 () with
  | Error e -> Alcotest.fail e
  | Ok s ->
      (* Cross-CN edges pay the copy latency: the 2-op recurrence at
         latency 1+1 plus 2 copy cycles needs ii >= 4. *)
      Alcotest.(check bool) "recurrence + copies" true (s.Modulo.ii >= 4);
      Alcotest.(check bool) "valid" true
        (Modulo.validate ~ddg ~cn_of_instr ~copy_latency:1 s = Ok ())

let test_modulo_dma_pressure () =
  let b = Ddg.Builder.create ~name:"mem" () in
  let a = Ddg.Builder.add_instr b Opcode.Agen in
  for _ = 1 to 8 do
    let l = Ddg.Builder.add_instr b Opcode.Load in
    Ddg.Builder.add_dep b ~src:a ~dst:l
  done;
  let ddg = Ddg.Builder.freeze b in
  let cn_of_instr = Array.init 9 (fun i -> i mod 4) in
  match Modulo.run ~ddg ~cn_of_instr ~cns:4 ~dma_ports:2 ~start_ii:1 () with
  | Error e -> Alcotest.fail e
  | Ok s ->
      (* 8 loads over 2 DMA ports need >= 4 cycles. *)
      Alcotest.(check bool) "dma bound" true (s.Modulo.ii >= 4)

let test_modulo_rejects_bad_input () =
  let ddg, _ = chain_on_one_cn 3 in
  match Modulo.run ~ddg ~cn_of_instr:[| 0 |] ~cns:1 ~dma_ports:1 ~start_ii:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "length mismatch accepted"

let test_modulo_validate_catches_violation () =
  let ddg, cn_of_instr = chain_on_one_cn 2 in
  match Modulo.run ~ddg ~cn_of_instr ~cns:1 ~dma_ports:8 ~start_ii:2 () with
  | Error e -> Alcotest.fail e
  | Ok s ->
      let broken = { s with Modulo.cycle_of = Array.map (fun _ -> 0) s.Modulo.cycle_of } in
      (match Modulo.validate ~ddg ~cn_of_instr ~copy_latency:1 broken with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "validation must fail")

let test_modulo_schedules_hca_output () =
  (* End-to-end: schedule fir2dim on its HCA placement and confirm the
     achieved II is at least the final MII the clusterisation reported. *)
  let fabric = Hca_machine.Dspfabric.reference in
  let ddg = Hca_kernels.Fir2dim.ddg () in
  let report = Hca_core.Report.run fabric ddg in
  match (report.Hca_core.Report.result, report.Hca_core.Report.final_mii) with
  | Some res, Some final_mii -> (
      match Lower.run res ~final_mii with
      | { schedule = Error e; _ } -> Alcotest.fail e
      | { expanded; schedule = Ok s } ->
          Alcotest.(check bool) "valid schedule" true
            (Modulo.validate ~ddg:expanded.Hca_core.Postprocess.ddg
               ~cn_of_instr:expanded.Hca_core.Postprocess.cn_of_node
               ~copy_latency:Lower.copy_latency s
            = Ok ());
          Alcotest.(check bool) "ii >= final MII" true (s.Modulo.ii >= final_mii))
  | _ -> Alcotest.fail "fir2dim must clusterise"

(* --- koms -------------------------------------------------------------- *)

let test_koms_stats () =
  let s =
    { Modulo.ii = 3; cycle_of = [| 0; 4; 8 |]; stages = 3; occupancy = 0.5; backtracks = 0 }
  in
  let k = Koms.analyse s in
  Alcotest.(check int) "stages" 3 k.Koms.stages;
  Alcotest.(check int) "predicates" 3 k.Koms.predicates;
  Alcotest.(check int) "fill/drain" 12 k.Koms.fill_drain_cycles;
  Alcotest.(check int) "total cycles" ((100 + 2) * 3) (Koms.total_cycles k ~trip:100)

let test_koms_speedup () =
  let s =
    { Modulo.ii = 2; cycle_of = [| 0; 2 |]; stages = 2; occupancy = 0.5; backtracks = 0 }
  in
  let k = Koms.analyse s in
  let sp = Koms.speedup_vs_unpipelined k ~trip:1000 ~schedule_length:10 in
  Alcotest.(check bool) "pipelining wins" true (sp > 4.0)

(* --- regpress ------------------------------------------------------------ *)

let test_regpress_chain () =
  let ddg, cn_of_instr = chain_on_one_cn 3 in
  match Modulo.run ~ddg ~cn_of_instr ~cns:1 ~dma_ports:8 ~start_ii:3 () with
  | Error e -> Alcotest.fail e
  | Ok s ->
      let rp = Regpress.analyse ~ddg ~cn_of_instr ~copy_latency:1 s in
      Alcotest.(check bool) "live values exist" true (rp.Regpress.max_live >= 1);
      Alcotest.(check bool) "lifetimes positive" true (rp.Regpress.total_lifetime >= 2)

let test_regpress_no_edges () =
  let b = Ddg.Builder.create ~name:"flat" () in
  ignore (Ddg.Builder.add_instr b Opcode.Add);
  let ddg = Ddg.Builder.freeze b in
  let s =
    { Modulo.ii = 1; cycle_of = [| 0 |]; stages = 1; occupancy = 1.0; backtracks = 0 }
  in
  let rp = Regpress.analyse ~ddg ~cn_of_instr:[| 0 |] ~copy_latency:1 s in
  Alcotest.(check int) "no liveness" 0 rp.Regpress.max_live

let () =
  Alcotest.run "sched"
    [
      ( "mrt",
        [
          Alcotest.test_case "reserve/release" `Quick test_mrt_reserve_release;
          Alcotest.test_case "dma" `Quick test_mrt_dma;
          Alcotest.test_case "occupancy" `Quick test_mrt_occupancy;
          Alcotest.test_case "release empty" `Quick test_mrt_release_unreserved;
        ] );
      ( "modulo",
        [
          Alcotest.test_case "chain" `Quick test_modulo_single_cn_chain;
          Alcotest.test_case "parallel" `Quick test_modulo_parallel_ops;
          Alcotest.test_case "recurrence" `Quick test_modulo_recurrence_bound;
          Alcotest.test_case "dma pressure" `Quick test_modulo_dma_pressure;
          Alcotest.test_case "bad input" `Quick test_modulo_rejects_bad_input;
          Alcotest.test_case "validate" `Quick test_modulo_validate_catches_violation;
          Alcotest.test_case "schedules HCA output" `Slow test_modulo_schedules_hca_output;
        ] );
      ( "koms",
        [
          Alcotest.test_case "stats" `Quick test_koms_stats;
          Alcotest.test_case "speedup" `Quick test_koms_speedup;
        ] );
      ( "regpress",
        [
          Alcotest.test_case "chain" `Quick test_regpress_chain;
          Alcotest.test_case "no edges" `Quick test_regpress_no_edges;
        ] );
    ]
