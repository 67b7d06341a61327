open Hca_machine
open Hca_core

type t = {
  expanded : Postprocess.t;
  schedule : (Modulo.schedule, string) result;
}

let copy_latency = 0

let run (res : Hierarchy.t) ~final_mii =
  let expanded = Postprocess.expand res in
  let schedule =
    Modulo.run
      ~params:{ Modulo.default_params with copy_latency }
      ~ddg:expanded.Postprocess.ddg ~cn_of_instr:expanded.Postprocess.cn_of_node
      ~cns:(Machine_desc.total_cns res.Hierarchy.fabric)
      ~dma_ports:(Machine_desc.dma_ports res.Hierarchy.fabric)
      ~start_ii:final_mii ()
  in
  { expanded; schedule }
