open Hca_ddg
open Hca_machine

type t = {
  rec_mii : int;
  res_mii : int;
  ini_mii : int;
  max_cls_mii : int;
  wire_mii : int;
  final_mii : int;
  copies : int;
  forwards : int;
  max_wire_load : int;
}

let of_result (r : Hierarchy.t) =
  let rec_mii = Mii.rec_mii r.Hierarchy.ddg in
  let res_mii = Mii.res_mii r.Hierarchy.ddg (Dspfabric.resources r.Hierarchy.fabric) in
  let ini_mii = max rec_mii res_mii in
  let cns = Dspfabric.total_cns r.Hierarchy.fabric in
  let max_cls_mii = ref 1 in
  for cn = 0 to cns - 1 do
    let load = Hierarchy.cn_count r cn + Hierarchy.recv_count r cn in
    if load > !max_cls_mii then max_cls_mii := load
  done;
  let subs = Hierarchy.subresults r in
  let max_wire_load =
    List.fold_left
      (fun acc (s : Hierarchy.subresult) ->
        max acc s.Hierarchy.max_wire_load)
      0 subs
  in
  let copies =
    List.fold_left
      (fun acc (s : Hierarchy.subresult) ->
        acc + Copy_flow.Frozen.copy_count s.Hierarchy.flow)
      0 subs
  in
  let wire_mii = max 1 max_wire_load in
  {
    rec_mii;
    res_mii;
    ini_mii;
    max_cls_mii = !max_cls_mii;
    wire_mii;
    final_mii = max ini_mii (max !max_cls_mii wire_mii);
    copies;
    forwards = List.length r.Hierarchy.forwards;
    max_wire_load;
  }

let pp ppf t =
  Format.fprintf ppf
    "rec=%d res=%d ini=%d cls=%d wire=%d final=%d copies=%d forwards=%d"
    t.rec_mii t.res_mii t.ini_mii t.max_cls_mii t.wire_mii t.final_mii t.copies
    t.forwards
