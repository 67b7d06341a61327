open Hca_ddg
open Hca_machine

type t = {
  cn_of_instr : int array;
  copies : int;
  projected_mii : int;
  violations : int;
}

(* Greedy balanced k-way clustering by edge affinity: grow [k] groups
   from high-degree seeds, always placing the most-connected remaining
   node into the group it has the strongest affinity with (capacity
   permitting). *)
let cluster ddg ids ~k ~capacity =
  let affinity = Hashtbl.create 64 in
  let bump a b =
    let key = (min a b, max a b) in
    Hashtbl.replace affinity key
      (1 + Option.value ~default:0 (Hashtbl.find_opt affinity key))
  in
  Ddg.iter_edges (fun e -> if e.src <> e.dst then bump e.src e.dst) ddg;
  let member = Hashtbl.create (List.length ids) in
  List.iter (fun i -> Hashtbl.replace member i ()) ids;
  let degree i =
    List.length (Ddg.succs ddg i) + List.length (Ddg.preds ddg i)
  in
  let sorted =
    List.sort (fun a b -> compare (-degree a, a) (-degree b, b)) ids
  in
  let group_of = Hashtbl.create (List.length ids) in
  let sizes = Array.make k 0 in
  let place i g =
    Hashtbl.replace group_of i g;
    sizes.(g) <- sizes.(g) + 1
  in
  (* Seeds: the k highest-degree nodes, one per group. *)
  List.iteri (fun idx i -> if idx < k then place i idx) sorted;
  let group_affinity i g =
    let aff neighbor =
      if Hashtbl.mem member neighbor then
        match Hashtbl.find_opt group_of neighbor with
        | Some g' when g' = g ->
            Option.value ~default:0
              (Hashtbl.find_opt affinity (min i neighbor, max i neighbor))
        | _ -> 0
      else 0
    in
    List.fold_left
      (fun acc (e : Ddg.edge) -> acc + aff e.dst)
      (List.fold_left
         (fun acc (e : Ddg.edge) -> acc + aff e.src)
         0 (Ddg.preds ddg i))
      (Ddg.succs ddg i)
  in
  List.iteri
    (fun idx i ->
      if idx >= k then begin
        let best = ref (-1) and best_key = ref (min_int, min_int) in
        for g = 0 to k - 1 do
          if sizes.(g) < capacity then begin
            let key = (group_affinity i g, -sizes.(g)) in
            if key > !best_key then begin
              best_key := key;
              best := g
            end
          end
        done;
        if !best >= 0 then place i !best
      end)
    sorted;
  List.map
    (fun i -> (i, Option.value ~default:0 (Hashtbl.find_opt group_of i)))
    ids

let run fabric ddg ~ii =
  let cns = Dspfabric.total_cns fabric in
  let n = Ddg.size ddg in
  if n > cns * ii then Error "not enough issue slots at this II"
  else begin
    let cn_of_instr = Array.make n (-1) in
    (* Recursive multilevel split following the fabric's fan-outs, so
       the group shapes are comparable with HCA's working sets. *)
    let rec split_range ids ~level ~first_cn =
      match ids with
      | [] -> ()
      | _ ->
          let view = Dspfabric.level_view fabric ~level in
          let k = view.Dspfabric.children in
          let capacity = view.Dspfabric.cns_per_child * ii in
          let groups = cluster ddg ids ~k ~capacity in
          if view.Dspfabric.is_leaf then
            List.iter (fun (i, g) -> cn_of_instr.(i) <- first_cn + g) groups
          else
            for g = 0 to k - 1 do
              let sub =
                List.filter_map
                  (fun (i, g') -> if g' = g then Some i else None)
                  groups
              in
              split_range sub ~level:(level + 1)
                ~first_cn:(first_cn + (g * view.Dspfabric.cns_per_child))
            done
    in
    split_range (List.init n (fun i -> i)) ~level:0 ~first_cn:0;
    if Array.exists (fun c -> c < 0) cn_of_instr then
      Error "clustering left instructions unplaced (capacity too tight)"
    else begin
      let copies, projected_mii = Flat_score.score fabric ddg cn_of_instr in
      let violations =
        Flat_score.mux_overflows fabric (fun arc ->
            Ddg.iter_edges
              (fun e -> arc cn_of_instr.(e.src) cn_of_instr.(e.dst))
              ddg)
      in
      Ok { cn_of_instr; copies; projected_mii; violations }
    end
  end
