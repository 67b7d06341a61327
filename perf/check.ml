(* Correctness checks on op outputs.  They run once per distinct
   output, after the timed region. *)

open Hca_core
module Dspfabric = Hca_machine.Dspfabric

type verdict = Pass | Skip of string | Fail of string

(* A clusterisation is legal when the independent coherency checker
   accepts it, the receive expansion validates, and the scheduled,
   mapped kernel stores what the reference interpreter stores.  A shape
   the modulo scheduler cannot place is a skip, not a failure. *)
let report fabric ddg (r : Report.t) =
  match (r.result, r.final_mii) with
  | None, _ -> if r.legal then Fail "legal without a result" else Skip "no legal clusterisation"
  | Some _, None -> Fail "result without a final MII"
  | Some res, Some final_mii -> (
      if not (Coherency.is_legal res) then Fail "coherency"
      else if not r.legal then Fail "coherent result reported illegal"
      else
        let exp = Postprocess.expand res in
        match Postprocess.validate exp res with
        | Error e -> Fail ("postprocess: " ^ e)
        | Ok () -> (
            let params = { Hca_sched.Modulo.default_params with copy_latency = 0 } in
            match
              Hca_sched.Modulo.run ~params ~ddg:exp.Postprocess.ddg
                ~cn_of_instr:exp.Postprocess.cn_of_node ~cns:(Dspfabric.total_cns fabric)
                ~dma_ports:(Dspfabric.dma_ports fabric) ~start_ii:final_mii ()
            with
            | Error e -> Skip ("unschedulable: " ^ e)
            | Ok schedule -> (
                match
                  Hca_sim.Machine_sim.check_against_reference ~iterations:4 ~original:ddg
                    ~expanded:exp.Postprocess.ddg ~cn_of_node:exp.Postprocess.cn_of_node ~schedule ()
                with
                | Ok _ -> Pass
                | Error e -> Fail ("simulation: " ^ e))))

let guard f = try f () with e -> Fail ("raised " ^ Printexc.to_string e)

(* The quality figure an op contributes: its final MII, or its kernel's
   instruction count when it found no legal clusterisation, so losing
   legality reads as a worse MII. *)
let mii (r : Report.t) = match r.final_mii with Some m when r.legal -> m | _ -> r.n_instr

(* FNV over the invariant strings in input order: equal digests mean
   bit-identical outputs. *)
let digest strings =
  let h = Hca_util.Sig_hash.create () in
  List.iter (Hca_util.Sig_hash.add_string h) strings;
  Printf.sprintf "%016x" (Hca_util.Sig_hash.value h)
