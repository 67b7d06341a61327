(* MIIRec: a circuit C forbids an initiation interval ii iff
   latency(C) - ii * distance(C) > 0.  So ii is achievable iff the graph
   weighted by (latency - ii * distance) has no positive circuit, which
   Bellman-Ford detects as a longest-path relaxation that does not
   settle.  rec_mii is the smallest achievable ii, found by binary
   search; latencies are non-negative so the search range is bounded by
   the total latency of the component. *)

let positive_circuit g nodes ii =
  let member = Hashtbl.create (List.length nodes) in
  List.iter (fun u -> Hashtbl.replace member u ()) nodes;
  let dist = Hashtbl.create (List.length nodes) in
  List.iter (fun u -> Hashtbl.replace dist u 0) nodes;
  let n = List.length nodes in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    List.iter
      (fun u ->
        let du = Hashtbl.find dist u in
        List.iter
          (fun (e : Ddg.edge) ->
            if Hashtbl.mem member e.dst then begin
              let w = e.latency - (ii * e.distance) in
              let cand = du + w in
              if cand > Hashtbl.find dist e.dst then begin
                Hashtbl.replace dist e.dst cand;
                changed := true
              end
            end)
          (Ddg.succs g u))
      nodes
  done;
  !changed

let rec_mii_of_scc g nodes =
  match nodes with
  | [] -> 1
  | _ ->
      let total_latency =
        List.fold_left
          (fun acc u ->
            List.fold_left
              (fun acc (e : Ddg.edge) -> acc + e.latency)
              acc (Ddg.succs g u))
          0 nodes
      in
      let lo = ref 1 and hi = ref (max 1 total_latency) in
      (* Invariant: ii < lo forbidden or untested-below, ii >= hi allowed. *)
      if positive_circuit g nodes !hi then
        invalid_arg "Mii.rec_mii_of_scc: circuit with zero total distance";
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if positive_circuit g nodes mid then lo := mid + 1 else hi := mid
      done;
      !lo

let rec_mii g =
  let comps = Graph_algo.nontrivial_sccs g in
  Array.fold_left (fun acc comp -> max acc (rec_mii_of_scc g comp)) 1 comps

type resources = {
  alu_slots : int;
  ag_slots : int;
  issue_slots : int;
  dma_ports : int;
}

let ceil_div a b = (a + b - 1) / b

(* Per resource class: its name, the kernel's uses per iteration and
   the machine's slots per cycle. *)
let classes g r =
  let count cls = Ddg.count g (fun i -> Opcode.unit_class i.Instr.opcode = cls) in
  [
    ("ALU", count Opcode.Alu, r.alu_slots);
    ("AG", count Opcode.Ag, r.ag_slots);
    ("issue", Ddg.size g, r.issue_slots);
    ("DMA", Ddg.memory_ops g, r.dma_ports);
  ]

let res_mii g r =
  List.fold_left
    (fun acc (_, uses, slots) ->
      if slots > 0 then max acc (ceil_div uses slots) else acc)
    1 (classes g r)

let unmappable g r =
  List.find_map
    (fun (name, uses, slots) ->
      if uses > 0 && slots <= 0 then
        Some
          (Printf.sprintf "unmappable: the machine has no %s slot for the \
                           kernel's %d %s op%s"
             name uses name (if uses = 1 then "" else "s"))
      else None)
    (classes g r)

let mii g r = max (rec_mii g) (res_mii g r)

let achievable g ~ii = ii >= rec_mii g
