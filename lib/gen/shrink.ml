open Hca_ddg
open Hca_machine

let fabric_candidates fabric =
  let levels = Machine_desc.levels fabric in
  let depth = Array.length levels in
  let cap l = levels.(l).Machine_desc.mux_cap in
  let fanouts = Array.map (fun (l : Machine_desc.level) -> l.fanout) levels in
  (* A generated machine is a [Dspfabric.make] shape, read back from its
     levels: N on level 0, K on the leaf, M on the levels in between. *)
  let rebuild ?(fanouts = fanouts) ?(n = cap 0) ?(m = cap (min 1 (depth - 1)))
      ?(k = cap (depth - 1)) ?(dma = Machine_desc.dma_ports fabric) () =
    Dspfabric.make ~fanouts ~cn_in_wires:(Machine_desc.cn_in_wires fabric)
      ~dma_ports:dma ~n ~m ~k ()
  in
  let cands = ref [] in
  let add f = cands := f :: !cands in
  (* Fewer CNs first: drop the outermost level... *)
  if depth > 2 then
    add (rebuild ~fanouts:(Array.sub fanouts 1 (depth - 1)) ());
  (* ... or reduce one fan-out towards the minimum of 2. *)
  Array.iteri
    (fun i f ->
      if f > 2 then begin
        let fo = Array.copy fanouts in
        fo.(i) <- 2;
        add (rebuild ~fanouts:fo ())
      end)
    fanouts;
  (* Capacity relaxation: a failure that survives on a roomier machine
     is a deeper bug, and the roomy instance is easier to stare at. *)
  if cap 0 < 8 then add (rebuild ~n:8 ());
  if depth > 2 && cap 1 < 8 then add (rebuild ~m:8 ());
  if cap (depth - 1) < 8 then add (rebuild ~k:8 ());
  if Machine_desc.dma_ports fabric < 8 then add (rebuild ~dma:8 ());
  List.rev !cands

(* Splice one node out, bypassing each producer->consumer pair through
   it: chains collapse where plain removal would orphan the consumer.
   Latencies and carried distances add up along the bypass, so the
   recurrence structure survives the surgery. *)
let splice g drop =
  let b = Ddg.Builder.create ~name:(Ddg.name g) () in
  Array.iter
    (fun (i : Instr.t) ->
      if i.Instr.id <> drop then
        ignore (Ddg.Builder.add_instr b ~name:i.Instr.name i.Instr.opcode))
    (Ddg.instrs g);
  let remap i = if i > drop then i - 1 else i in
  let preds = ref [] and succs = ref [] in
  Ddg.iter_edges
    (fun (e : Ddg.edge) ->
      match (e.src = drop, e.dst = drop) with
      | false, false ->
          Ddg.Builder.add_dep b ~latency:e.latency ~distance:e.distance
            ~src:(remap e.src) ~dst:(remap e.dst)
      | false, true -> preds := e :: !preds
      | true, false -> succs := e :: !succs
      | true, true -> ())
    g;
  List.iter
    (fun (p : Ddg.edge) ->
      List.iter
        (fun (s : Ddg.edge) ->
          Ddg.Builder.add_dep b
            ~latency:(p.latency + s.latency)
            ~distance:(p.distance + s.distance)
            ~src:(remap p.src) ~dst:(remap s.dst))
        !succs)
    !preds;
  Ddg.Builder.freeze b

let ddg_candidates g =
  let n = Ddg.size g in
  let node_removals =
    if n <= 2 then []
    else
      List.concat
        (List.init n (fun drop ->
             let ids = List.filter (fun i -> i <> drop) (List.init n Fun.id) in
             let sub, _ = Ddg.induced g ids in
             if Gen.well_formed sub then [ sub ] else []))
  in
  let splices =
    if n <= 2 then []
    else
      List.concat
        (List.init n (fun drop ->
             match splice g drop with
             | sub when Gen.well_formed sub -> [ sub ]
             | _ -> []
             | exception Invalid_argument _ -> []))
  in
  let edges = Ddg.edges g in
  let edge_removals =
    List.concat
      (List.init (Array.length edges) (fun drop ->
           let j = ref (-1) in
           let sub =
             Ddg.filter_edges g (fun _ ->
                 incr j;
                 !j <> drop)
           in
           if Gen.well_formed sub then [ sub ] else []))
  in
  node_removals @ splices @ edge_removals

let minimize ~keep (inst : Gen.instance) =
  if not (keep inst) then
    invalid_arg "Shrink.minimize: predicate rejects the initial instance";
  let try_list mk cands =
    List.find_map
      (fun c ->
        let cand = mk c in
        if keep cand then Some cand else None)
      cands
  in
  let step inst =
    match
      try_list
        (fun f -> { inst with Gen.fabric = f })
        (fabric_candidates inst.Gen.fabric)
    with
    | Some _ as r -> r
    | None ->
        try_list
          (fun d -> { inst with Gen.ddg = d })
          (ddg_candidates inst.Gen.ddg)
  in
  let rec fix inst = match step inst with Some i -> fix i | None -> inst in
  fix inst
