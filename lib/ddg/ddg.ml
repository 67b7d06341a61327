type edge = {
  src : Instr.id;
  dst : Instr.id;
  latency : int;
  distance : int;
}

type t = {
  name : string;
  content_id : int;
  instrs : Instr.t array;
  edges : edge array;
  succs : edge list array;
  preds : edge list array;
}

(* Cycle check on the distance=0 subgraph: iterative three-colour DFS. *)
let acyclic_intra n succs =
  let state = Array.make n 0 in
  let ok = ref true in
  let rec visit u =
    state.(u) <- 1;
    List.iter
      (fun e ->
        if e.distance = 0 then
          if state.(e.dst) = 1 then ok := false
          else if state.(e.dst) = 0 then visit e.dst)
      succs.(u);
    state.(u) <- 2
  in
  for u = 0 to n - 1 do
    if !ok && state.(u) = 0 then visit u
  done;
  !ok

(* 62-bit FNV signature of everything but the graph name: each
   instruction's opcode and name, then each edge, in id and insertion
   order. *)
let content_id instrs edges =
  let h = Hca_util.Sig_hash.create () in
  Hca_util.Sig_hash.add_int h (Array.length instrs);
  Array.iter
    (fun (i : Instr.t) ->
      Hca_util.Sig_hash.add_string h (Opcode.mnemonic i.Instr.opcode);
      Hca_util.Sig_hash.add_string h i.Instr.name)
    instrs;
  Hca_util.Sig_hash.add_int h (Array.length edges);
  Array.iter
    (fun e ->
      Hca_util.Sig_hash.add_int h e.src;
      Hca_util.Sig_hash.add_int h e.dst;
      Hca_util.Sig_hash.add_int h e.latency;
      Hca_util.Sig_hash.add_int h e.distance)
    edges;
  Hca_util.Sig_hash.value h

module Builder = struct
  type graph = t

  type t = {
    bname : string;
    binstrs : Instr.t Hca_util.Vec.t;
    bedges : edge Hca_util.Vec.t;
  }

  let create ?(name = "kernel") () =
    {
      bname = name;
      binstrs = Hca_util.Vec.create ();
      bedges = Hca_util.Vec.create ();
    }

  let add_instr b ?name opcode =
    let id = Hca_util.Vec.length b.binstrs in
    ignore (Hca_util.Vec.push b.binstrs (Instr.make ~id ?name opcode));
    id

  let add_dep ?(distance = 0) ?latency b ~src ~dst =
    let n = Hca_util.Vec.length b.binstrs in
    if src < 0 || src >= n || dst < 0 || dst >= n then
      invalid_arg "Ddg.Builder.add_dep: unknown instruction id";
    if distance < 0 then invalid_arg "Ddg.Builder.add_dep: negative distance";
    if distance = 0 && src = dst then
      invalid_arg "Ddg.Builder.add_dep: intra-iteration self-loop";
    let latency =
      match latency with
      | Some l ->
          if l < 0 then invalid_arg "Ddg.Builder.add_dep: negative latency";
          l
      | None -> Opcode.latency (Hca_util.Vec.get b.binstrs src).Instr.opcode
    in
    ignore (Hca_util.Vec.push b.bedges { src; dst; latency; distance })

  let freeze b =
    let instrs = Hca_util.Vec.to_array b.binstrs in
    let edges = Hca_util.Vec.to_array b.bedges in
    let n = Array.length instrs in
    let succs = Array.make n [] in
    let preds = Array.make n [] in
    Array.iter
      (fun e ->
        succs.(e.src) <- e :: succs.(e.src);
        preds.(e.dst) <- e :: preds.(e.dst))
      edges;
    (* Restore insertion order, which callers may rely on for determinism. *)
    Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
    Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
    if not (acyclic_intra n succs) then
      invalid_arg "Ddg.Builder.freeze: intra-iteration dependence cycle";
    {
      name = b.bname;
      content_id = content_id instrs edges;
      instrs;
      edges;
      succs;
      preds;
    }
end

let name g = g.name

let with_name g name = { g with name }

let content_id g = g.content_id

let size g = Array.length g.instrs

let instr g id =
  if id < 0 || id >= size g then invalid_arg "Ddg.instr: bad id";
  g.instrs.(id)

let instrs g = g.instrs

let edges g = g.edges

let succs g id =
  if id < 0 || id >= size g then invalid_arg "Ddg.succs: bad id";
  g.succs.(id)

let preds g id =
  if id < 0 || id >= size g then invalid_arg "Ddg.preds: bad id";
  g.preds.(id)

let iter_edges f g = Array.iter f g.edges

let count g p =
  Array.fold_left (fun n i -> if p i then n + 1 else n) 0 g.instrs

let memory_ops g = count g (fun i -> Opcode.is_memory i.Instr.opcode)

let induced g ids =
  let ids = Array.of_list ids in
  let n = size g in
  let new_of_old = Array.make n (-1) in
  Array.iteri
    (fun new_id old_id ->
      if old_id < 0 || old_id >= n then invalid_arg "Ddg.induced: bad id";
      if new_of_old.(old_id) >= 0 then invalid_arg "Ddg.induced: duplicate id";
      new_of_old.(old_id) <- new_id)
    ids;
  let b = Builder.create ~name:(g.name ^ ".sub") () in
  Array.iter
    (fun old_id ->
      let i = g.instrs.(old_id) in
      ignore (Builder.add_instr b ~name:i.Instr.name i.Instr.opcode))
    ids;
  Array.iter
    (fun e ->
      let s = new_of_old.(e.src) and d = new_of_old.(e.dst) in
      if s >= 0 && d >= 0 then
        Builder.add_dep b ~distance:e.distance ~latency:e.latency ~src:s ~dst:d)
    g.edges;
  (Builder.freeze b, ids)

let filter_edges g p =
  let b = Builder.create ~name:g.name () in
  Array.iter
    (fun (i : Instr.t) ->
      ignore (Builder.add_instr b ~name:i.Instr.name i.Instr.opcode))
    g.instrs;
  Array.iter
    (fun e ->
      if p e then
        Builder.add_dep b ~distance:e.distance ~latency:e.latency ~src:e.src
          ~dst:e.dst)
    g.edges;
  Builder.freeze b

let edge_key e = (e.src, e.dst, e.latency, e.distance)

let equal_structure a b =
  size a = size b
  && Array.for_all2
       (fun (x : Instr.t) (y : Instr.t) -> Opcode.equal x.opcode y.opcode)
       a.instrs b.instrs
  && Array.length a.edges = Array.length b.edges
  &&
  let sort es = List.sort compare (List.map edge_key (Array.to_list es)) in
  sort a.edges = sort b.edges

let equal_exact a b =
  a.name = b.name
  && equal_structure a b
  && Array.for_all2
       (fun (x : Instr.t) (y : Instr.t) -> x.name = y.name)
       a.instrs b.instrs

let pp ppf g =
  Format.fprintf ppf "@[<v>ddg %s (%d instrs, %d edges)" g.name (size g)
    (Array.length g.edges);
  Array.iter
    (fun i ->
      Format.fprintf ppf "@,  %a" Instr.pp i;
      List.iter
        (fun e ->
          Format.fprintf ppf " <-%%%d(l%d,d%d)" e.src e.latency e.distance)
        g.preds.(i.Instr.id))
    g.instrs;
  Format.fprintf ppf "@]"
