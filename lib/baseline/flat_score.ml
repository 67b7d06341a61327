open Hca_ddg
open Hca_machine

let score fabric ddg cn_of_instr =
  (* Per-CN load: issued ops plus one receive per incoming copy. *)
  let load = Array.make (Dspfabric.total_cns fabric) 0 in
  Array.iter (fun c -> load.(c) <- load.(c) + 1) cn_of_instr;
  let copies = ref 0 in
  Ddg.iter_edges
    (fun e ->
      let d = cn_of_instr.(e.dst) in
      if cn_of_instr.(e.src) <> d then begin
        incr copies;
        load.(d) <- load.(d) + 1
      end)
    ddg;
  (!copies, Array.fold_left max 1 load)

let mux_overflows fabric iter_arcs =
  let cns = Dspfabric.total_cns fabric in
  let total = ref 0 in
  for level = 0 to Dspfabric.depth fabric - 1 do
    let view = Dspfabric.level_view fabric ~level in
    let group_size = view.Dspfabric.cns_per_child in
    let in_sets = Array.make (cns / group_size) [] in
    iter_arcs (fun src dst ->
        let gs = src / group_size and gd = dst / group_size in
        if gs <> gd && not (List.mem gs in_sets.(gd)) then
          in_sets.(gd) <- gs :: in_sets.(gd));
    Array.iter
      (fun sources ->
        total :=
          !total + max 0 (List.length sources - view.Dspfabric.mux_capacity))
      in_sets
  done;
  !total
