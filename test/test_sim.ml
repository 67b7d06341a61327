(* Tests for the executable semantics, the reference interpreter and the
   timed machine simulator — including the end-to-end equivalence of the
   whole HCA + postprocess + scheduling pipeline. *)

open Hca_ddg
open Hca_machine
open Hca_core
open Hca_sim

(* --- semantics ------------------------------------------------------- *)

let test_semantics_basic () =
  Alcotest.(check int32) "add" 7l (Semantics.eval Opcode.Add [ 3l; 4l ]);
  Alcotest.(check int32) "unary add increments" 4l (Semantics.eval Opcode.Add [ 3l ]);
  Alcotest.(check int32) "sub" (-1l) (Semantics.eval Opcode.Sub [ 3l; 4l ]);
  Alcotest.(check int32) "mul" 12l (Semantics.eval Opcode.Mul [ 3l; 4l ]);
  Alcotest.(check int32) "min" 3l (Semantics.eval Opcode.Min [ 3l; 4l ]);
  Alcotest.(check int32) "abs" 5l (Semantics.eval Opcode.Abs [ -5l ]);
  Alcotest.(check int32) "clip low" 0l (Semantics.eval Opcode.Clip [ -5l ]);
  Alcotest.(check int32) "clip high" 255l (Semantics.eval Opcode.Clip [ 300l ]);
  Alcotest.(check int32) "cmp true" 1l (Semantics.eval Opcode.Cmp [ 1l; 2l ]);
  Alcotest.(check int32) "sel picks" 9l (Semantics.eval Opcode.Sel [ 1l; 9l; 8l ]);
  Alcotest.(check int32) "sel else" 8l (Semantics.eval Opcode.Sel [ 0l; 9l; 8l ]);
  Alcotest.(check int32) "mov id" 5l (Semantics.eval Opcode.Mov [ 5l ]);
  Alcotest.(check int32) "recv id" 5l (Semantics.eval Opcode.Recv [ 5l ]);
  Alcotest.(check int32) "const" 42l (Semantics.eval (Opcode.Const 42) [])

let test_semantics_memory_deterministic () =
  Alcotest.(check int32) "same addr" (Semantics.load_image 7l)
    (Semantics.load_image 7l);
  Alcotest.(check bool) "different addrs differ" true
    (Semantics.load_image 7l <> Semantics.load_image 8l);
  Alcotest.(check int32) "load evals image" (Semantics.load_image 5l)
    (Semantics.eval Opcode.Load [ 5l ])

let test_semantics_arity_checked () =
  Alcotest.check_raises "sub with no operands"
    (Invalid_argument "Semantics.eval: arity of sub") (fun () ->
      ignore (Semantics.eval Opcode.Sub []));
  (* Operators fold over whatever the dependence edges supply. *)
  Alcotest.(check int32) "sub folds" (-6l) (Semantics.eval Opcode.Sub [ 1l; 3l; 4l ])

(* --- interpreter ------------------------------------------------------ *)

let test_interp_induction_counts () =
  let b = Hca_kernels.Kbuild.create "ind" in
  let i = Hca_kernels.Kbuild.induction b ~name:"i" () in
  let addr = Hca_kernels.Kbuild.op b Opcode.Agen [ i ] in
  let _ = Hca_kernels.Kbuild.store b ~addr addr in
  let g = Hca_kernels.Kbuild.freeze b in
  (* The induction increments by one each iteration. *)
  let v0 = Interp.value_of g i 0 and v3 = Interp.value_of g i 3 in
  Alcotest.(check int32) "steps by one" (Int32.add v0 3l) v3

let test_interp_trace_shape () =
  let g = Hca_kernels.Fir2dim.ddg () in
  let trace = Interp.run ~iterations:4 g in
  (* fir2dim has one store per iteration. *)
  Alcotest.(check int) "one store x 4 iterations" 4 (List.length trace);
  List.iter
    (fun (e : Interp.event) ->
      Alcotest.(check bool) "iteration in range" true
        (e.iteration >= 0 && e.iteration < 4))
    trace

let test_interp_deterministic () =
  let g = Hca_kernels.Idcthor.ddg () in
  let a = Interp.run ~iterations:3 g and b = Interp.run ~iterations:3 g in
  Alcotest.(check bool) "same trace" true (a = b)

let test_interp_all_kernels_run () =
  List.iter
    (fun (name, f) ->
      let trace = Interp.run ~iterations:2 (f ()) in
      Alcotest.(check bool) (name ^ " stores") true (trace <> []))
    Hca_kernels.Registry.extended

(* --- machine simulator -------------------------------------------------- *)

let pipeline ddg =
  let fabric = Dspfabric.reference in
  let report = Report.run fabric ddg in
  match (report.Report.result, report.Report.final_mii) with
  | Some res, Some final -> (
      match Hca_sched.Lower.run res ~final_mii:final with
      | { expanded; schedule = Ok schedule } -> (expanded, schedule)
      | { schedule = Error e; _ } -> failwith e)
  | _ -> failwith "clusterisation failed"

let test_machine_sim_equivalence kernel f () =
  let ddg = f () in
  let exp, schedule = pipeline ddg in
  match
    Machine_sim.check_against_reference ~iterations:6 ~original:ddg
      ~expanded:exp.Postprocess.ddg ~cn_of_node:exp.Postprocess.cn_of_node
      ~schedule ()
  with
  | Error e -> Alcotest.failf "%s: %s" kernel e
  | Ok stats ->
      Alcotest.(check bool) "issued everything" true
        (stats.Machine_sim.issued = 6 * Ddg.size exp.Postprocess.ddg);
      Alcotest.(check bool) "pipelined" true (stats.Machine_sim.max_inflight >= 1)

let test_machine_sim_catches_bad_schedule () =
  let ddg = Hca_kernels.Fir2dim.ddg () in
  let exp, schedule = pipeline ddg in
  (* Flatten the schedule to all-zero cycles: operands are read before
     they are produced (or CNs double-issue) and the simulator objects. *)
  let broken =
    {
      schedule with
      Hca_sched.Modulo.cycle_of =
        Array.map (fun _ -> 0) schedule.Hca_sched.Modulo.cycle_of;
    }
  in
  match
    Machine_sim.run ~iterations:2 ~ddg:exp.Postprocess.ddg
      ~cn_of_node:exp.Postprocess.cn_of_node ~schedule:broken ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hazard not caught"

let test_machine_sim_cycle_count () =
  let ddg = Hca_kernels.Fir2dim.ddg () in
  let exp, schedule = pipeline ddg in
  match
    Machine_sim.run ~iterations:4 ~ddg:exp.Postprocess.ddg
      ~cn_of_node:exp.Postprocess.cn_of_node ~schedule ()
  with
  | Error e -> Alcotest.fail e
  | Ok stats ->
      (* Kernel-only pipeline: (trip + stages - 1) * II cycles, give or
         take the final iteration's tail. *)
      let ii = schedule.Hca_sched.Modulo.ii in
      Alcotest.(check bool) "at least trip x II" true
        (stats.Machine_sim.cycles >= 4 * ii)

let () =
  Alcotest.run "sim"
    [
      ( "semantics",
        [
          Alcotest.test_case "opcodes" `Quick test_semantics_basic;
          Alcotest.test_case "memory" `Quick test_semantics_memory_deterministic;
          Alcotest.test_case "arity" `Quick test_semantics_arity_checked;
        ] );
      ( "interp",
        [
          Alcotest.test_case "induction" `Quick test_interp_induction_counts;
          Alcotest.test_case "trace shape" `Quick test_interp_trace_shape;
          Alcotest.test_case "deterministic" `Quick test_interp_deterministic;
          Alcotest.test_case "all kernels" `Quick test_interp_all_kernels_run;
        ] );
      ( "machine-sim",
        [
          Alcotest.test_case "fir2dim equivalence" `Slow
            (test_machine_sim_equivalence "fir2dim" Hca_kernels.Fir2dim.ddg);
          Alcotest.test_case "idcthor equivalence" `Slow
            (test_machine_sim_equivalence "idcthor" Hca_kernels.Idcthor.ddg);
          Alcotest.test_case "mpeg2inter equivalence" `Slow
            (test_machine_sim_equivalence "mpeg2inter" Hca_kernels.Mpeg2inter.ddg);
          Alcotest.test_case "h264 equivalence" `Slow
            (test_machine_sim_equivalence "h264deblocking"
               Hca_kernels.H264deblock.ddg);
          Alcotest.test_case "hazard detection" `Slow
            test_machine_sim_catches_bad_schedule;
          Alcotest.test_case "cycle count" `Slow test_machine_sim_cycle_count;
        ] );
    ]
