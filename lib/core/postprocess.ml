open Hca_ddg
open Hca_machine

type t = {
  ddg : Ddg.t;
  cn_of_node : int array;
  recv_count : int;
  forward_count : int;
}

let hop_distance (res : Hierarchy.t) ~src_cn ~dst_cn =
  if src_cn = dst_cn then 0
  else
    let fabric = res.Hierarchy.fabric in
    let shared = Machine_desc.shared_depth fabric src_cn dst_cn in
    (2 * (Dspfabric.depth fabric - shared)) - 1

let expand (res : Hierarchy.t) =
  let ddg = res.Hierarchy.ddg in
  let n = Ddg.size ddg in
  let b = Ddg.Builder.create ~name:(Ddg.name ddg ^ ".expanded") () in
  let cns = Hca_util.Vec.create () in
  (* Original instructions keep their ids. *)
  Array.iter
    (fun (i : Instr.t) ->
      ignore (Ddg.Builder.add_instr b ~name:i.name i.opcode);
      ignore (Hca_util.Vec.push cns res.Hierarchy.cn_of_instr.(i.id)))
    (Ddg.instrs ddg);
  (* Forwarding moves injected by the Route Allocator and the
     pass-through nodes: the value flows producer -> mov. *)
  let forward_count = List.length res.Hierarchy.forwards in
  List.iter
    (fun (value, cn) ->
      let producer = Ddg.instr ddg value in
      let mov =
        Ddg.Builder.add_instr b
          ~name:(Printf.sprintf "fwd_%s@%d" producer.Instr.name cn)
          Opcode.Mov
      in
      ignore (Hca_util.Vec.push cns cn);
      let hops =
        hop_distance res ~src_cn:res.Hierarchy.cn_of_instr.(value) ~dst_cn:cn
      in
      Ddg.Builder.add_dep b
        ~latency:(Opcode.latency producer.Instr.opcode + max 1 hops)
        ~src:value ~dst:mov)
    res.Hierarchy.forwards;
  (* One receive per (value, consuming CN, carried distance), shared by
     all the consumers of the value on that CN at that distance.  The
     loop-carried distance travels on the producer->receive transport
     edge: the receive then observes exactly what the consumer would
     have read from the producer — including the pre-loop initial value
     of the {e producer} node, which is what keeps the machine
     execution bit-identical to the reference interpretation during the
     first [distance] iterations. *)
  let recvs = Hashtbl.create 32 in
  let recv_of value dst_cn distance =
    match Hashtbl.find_opt recvs (value, dst_cn, distance) with
    | Some r -> r
    | None ->
        let producer = Ddg.instr ddg value in
        let r =
          Ddg.Builder.add_instr b
            ~name:
              (if distance = 0 then
                 Printf.sprintf "rcv_%s@%d" producer.Instr.name dst_cn
               else
                 Printf.sprintf "rcv_%s@%d~%d" producer.Instr.name dst_cn
                   distance)
            Opcode.Recv
        in
        ignore (Hca_util.Vec.push cns dst_cn);
        let hops =
          hop_distance res ~src_cn:res.Hierarchy.cn_of_instr.(value)
            ~dst_cn
        in
        Ddg.Builder.add_dep b
          ~latency:(Opcode.latency producer.Instr.opcode + hops)
          ~distance ~src:value ~dst:r;
        Hashtbl.replace recvs (value, dst_cn, distance) r;
        r
  in
  Ddg.iter_edges
    (fun (e : Ddg.edge) ->
      let src_cn = res.Hierarchy.cn_of_instr.(e.src)
      and dst_cn = res.Hierarchy.cn_of_instr.(e.dst) in
      if src_cn = dst_cn then
        Ddg.Builder.add_dep b ~latency:e.latency ~distance:e.distance
          ~src:e.src ~dst:e.dst
      else begin
        let r = recv_of e.src dst_cn e.distance in
        (* The local hand-off is intra-iteration and costs one cycle. *)
        Ddg.Builder.add_dep b ~latency:1 ~src:r ~dst:e.dst
      end)
    ddg;
  ignore n;
  {
    ddg = Ddg.Builder.freeze b;
    cn_of_node = Hca_util.Vec.to_array cns;
    recv_count = Hashtbl.length recvs;
    forward_count;
  }

let issue_load t =
  let cns = Array.fold_left max 0 t.cn_of_node + 1 in
  let load = Array.make cns 0 in
  Array.iter (fun cn -> load.(cn) <- load.(cn) + 1) t.cn_of_node;
  load

let validate t (res : Hierarchy.t) =
  let original = res.Hierarchy.ddg in
  let errors = ref [] in
  (* Prefix equality: the original instructions are preserved. *)
  Array.iter
    (fun (i : Instr.t) ->
      if
        not
          (Opcode.equal i.opcode (Ddg.instr t.ddg i.id).Instr.opcode)
      then errors := Printf.sprintf "instruction %%%d changed" i.id :: !errors;
      if t.cn_of_node.(i.id) <> res.Hierarchy.cn_of_instr.(i.id) then
        errors := Printf.sprintf "instruction %%%d moved" i.id :: !errors)
    (Ddg.instrs original);
  (* Every cross-CN dependence is mediated by a receive on the
     consumer's CN. *)
  Ddg.iter_edges
    (fun (e : Ddg.edge) ->
      let src_cn = res.Hierarchy.cn_of_instr.(e.src)
      and dst_cn = res.Hierarchy.cn_of_instr.(e.dst) in
      if src_cn <> dst_cn then begin
        let mediated =
          List.exists
            (fun (pe : Ddg.edge) ->
              let p = Ddg.instr t.ddg pe.src in
              p.Instr.opcode = Opcode.Recv
              && t.cn_of_node.(pe.src) = dst_cn
              && List.exists
                   (fun (te : Ddg.edge) -> te.src = e.src)
                   (Ddg.preds t.ddg pe.src))
            (Ddg.preds t.ddg e.dst)
        in
        if not mediated then
          errors :=
            Printf.sprintf "edge %%%d->%%%d not mediated by a receive" e.src
              e.dst
            :: !errors
      end)
    original;
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " es)
