(* End-to-end compilation pipeline: cluster assignment (this paper) +
   the modulo-scheduling phase the authors defer to future work — a
   preview of the complete DSPFabric toolchain.

   Run with:  dune exec examples/sched_pipeline.exe *)

open Hca_machine
open Hca_core
open Hca_sched

let () =
  let fabric = Dspfabric.reference in
  let ddg = Hca_kernels.Mpeg2inter.ddg () in
  Printf.printf "=== %s on %s ===\n" (Hca_ddg.Ddg.name ddg)
    (Dspfabric.name fabric);

  (* Phase 1: Hierarchical Cluster Assignment. *)
  let report = Report.run fabric ddg in
  (match report.Report.final_mii with
  | None -> failwith "clusterisation failed"
  | Some final ->
      Printf.printf "HCA: legal=%b, final MII=%d (ini %d)\n" report.Report.legal
        final report.Report.ini_mii);
  let res = Option.get report.Report.result in
  let final = Option.get report.Report.final_mii in

  (* Phase 2: the receive expansion that closes HCA (§4.1), then
     iterative modulo scheduling of the expanded DDG. *)
  let { Lower.expanded; schedule } = Lower.run res ~final_mii:final in
  let ddg_x = expanded.Postprocess.ddg
  and cn_of_node = expanded.Postprocess.cn_of_node in
  Printf.printf "expanded DDG: %d nodes (%d receives, %d forwards)\n"
    (Hca_ddg.Ddg.size ddg_x) expanded.Postprocess.recv_count
    expanded.Postprocess.forward_count;
  match schedule with
  | Error e -> Printf.printf "scheduling failed: %s\n" e
  | Ok schedule ->
      Printf.printf
        "modulo schedule: II=%d (final MII %d), %d stages, occupancy %.2f\n"
        schedule.Modulo.ii final schedule.Modulo.stages
        schedule.Modulo.occupancy;
      (match
         Modulo.validate ~ddg:ddg_x ~cn_of_instr:cn_of_node
           ~copy_latency:Lower.copy_latency schedule
       with
      | Ok () -> print_endline "schedule validated (dependences + resources)"
      | Error e -> Printf.printf "INVALID schedule: %s\n" e);

      (* Phase 3: kernel-only code-generation statistics (§2.2: DSPFabric
         runs fully predicated kernels under a cyclic program counter). *)
      let koms = Koms.analyse schedule in
      Printf.printf
        "kernel-only execution: %d staging predicates, %d fill/drain cycles\n"
        koms.Koms.predicates koms.Koms.fill_drain_cycles;
      List.iter
        (fun trip ->
          Printf.printf "  %4d iterations: %6d cycles (%.1fx vs unpipelined)\n"
            trip
            (Koms.total_cycles koms ~trip)
            (Koms.speedup_vs_unpipelined koms ~trip
               ~schedule_length:
                 (Hca_ddg.Graph_algo.critical_path ddg + 1)))
        [ 10; 100; 1000 ];

      (* Phase 4: register pressure, the cost factor the paper plans to
         fold into the HCA objective next. *)
      let rp =
        Regpress.analyse ~ddg:ddg_x ~cn_of_instr:cn_of_node
          ~copy_latency:Lower.copy_latency schedule
      in
      Printf.printf
        "register pressure: max %d simultaneous live values on a CN, total \
         lifetime %d cycles\n"
        rp.Regpress.max_live rp.Regpress.total_lifetime
