(* Tests for the IR: opcodes, DDG construction, graph algorithms, MII
   bounds and serialisation. *)

open Hca_ddg

(* --- helpers ------------------------------------------------------ *)

(* Linear chain a -> b -> c ... with unit latencies. *)
let chain n =
  let b = Ddg.Builder.create ~name:"chain" () in
  let ids = Array.init n (fun _ -> Ddg.Builder.add_instr b Opcode.Add) in
  for i = 0 to n - 2 do
    Ddg.Builder.add_dep b ~src:ids.(i) ~dst:ids.(i + 1)
  done;
  Ddg.Builder.freeze b

(* Self-recurrence of [k] unit ops at distance 1 => MIIRec = k. *)
let cycle k =
  let b = Ddg.Builder.create ~name:"cycle" () in
  let ids = Array.init k (fun _ -> Ddg.Builder.add_instr b Opcode.Add) in
  for i = 0 to k - 2 do
    Ddg.Builder.add_dep b ~src:ids.(i) ~dst:ids.(i + 1)
  done;
  Ddg.Builder.add_dep b ~distance:1 ~src:ids.(k - 1) ~dst:ids.(0);
  Ddg.Builder.freeze b

let default_resources =
  { Mii.alu_slots = 64; ag_slots = 64; issue_slots = 64; dma_ports = 8 }

(* --- opcode ------------------------------------------------------- *)

let test_opcode_roundtrip () =
  List.iter
    (fun op ->
      match Opcode.of_mnemonic (Opcode.mnemonic op) with
      | Some op' ->
          Alcotest.(check bool) (Opcode.mnemonic op) true (Opcode.equal op op')
      | None -> Alcotest.failf "no parse for %s" (Opcode.mnemonic op))
    Opcode.all

let test_opcode_const_roundtrip () =
  match Opcode.of_mnemonic (Opcode.mnemonic (Opcode.Const 42)) with
  | Some (Opcode.Const 42) -> ()
  | _ -> Alcotest.fail "const roundtrip"

let test_opcode_classes () =
  Alcotest.(check bool) "load on AG" true (Opcode.unit_class Opcode.Load = Opcode.Ag);
  Alcotest.(check bool) "agen on AG" true (Opcode.unit_class Opcode.Agen = Opcode.Ag);
  Alcotest.(check bool) "add on ALU" true (Opcode.unit_class Opcode.Add = Opcode.Alu);
  Alcotest.(check bool) "load is memory" true (Opcode.is_memory Opcode.Load);
  Alcotest.(check bool) "store is memory" true (Opcode.is_memory Opcode.Store);
  Alcotest.(check bool) "agen not memory" false (Opcode.is_memory Opcode.Agen)

let test_opcode_latencies () =
  Alcotest.(check int) "mul" 2 (Opcode.latency Opcode.Mul);
  Alcotest.(check int) "load" 3 (Opcode.latency Opcode.Load);
  Alcotest.(check int) "add" 1 (Opcode.latency Opcode.Add)

(* --- builder ------------------------------------------------------ *)

let test_builder_dense_ids () =
  let b = Ddg.Builder.create () in
  Alcotest.(check int) "first id" 0 (Ddg.Builder.add_instr b Opcode.Add);
  Alcotest.(check int) "second id" 1 (Ddg.Builder.add_instr b Opcode.Sub)

let test_builder_rejects_bad_edges () =
  let b = Ddg.Builder.create () in
  let a = Ddg.Builder.add_instr b Opcode.Add in
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Ddg.Builder.add_dep: unknown instruction id") (fun () ->
      Ddg.Builder.add_dep b ~src:a ~dst:7);
  Alcotest.check_raises "self loop"
    (Invalid_argument "Ddg.Builder.add_dep: intra-iteration self-loop")
    (fun () -> Ddg.Builder.add_dep b ~src:a ~dst:a);
  Alcotest.check_raises "negative distance"
    (Invalid_argument "Ddg.Builder.add_dep: negative distance") (fun () ->
      Ddg.Builder.add_dep b ~distance:(-1) ~src:a ~dst:a)

let test_builder_rejects_intra_cycle () =
  let b = Ddg.Builder.create () in
  let x = Ddg.Builder.add_instr b Opcode.Add in
  let y = Ddg.Builder.add_instr b Opcode.Add in
  Ddg.Builder.add_dep b ~src:x ~dst:y;
  Ddg.Builder.add_dep b ~src:y ~dst:x;
  Alcotest.check_raises "intra cycle"
    (Invalid_argument "Ddg.Builder.freeze: intra-iteration dependence cycle")
    (fun () -> ignore (Ddg.Builder.freeze b))

let test_builder_allows_carried_cycle () =
  let g = cycle 3 in
  Alcotest.(check int) "size" 3 (Ddg.size g)

let test_default_latency_from_producer () =
  let b = Ddg.Builder.create () in
  let m = Ddg.Builder.add_instr b Opcode.Mul in
  let a = Ddg.Builder.add_instr b Opcode.Add in
  Ddg.Builder.add_dep b ~src:m ~dst:a;
  let g = Ddg.Builder.freeze b in
  match Ddg.succs g m with
  | [ e ] -> Alcotest.(check int) "mul latency" 2 e.Ddg.latency
  | _ -> Alcotest.fail "expected one edge"

let test_preds_succs_consistency () =
  let g = chain 5 in
  Ddg.iter_edges
    (fun e ->
      Alcotest.(check bool) "in succs" true (List.mem e (Ddg.succs g e.Ddg.src));
      Alcotest.(check bool) "in preds" true (List.mem e (Ddg.preds g e.Ddg.dst)))
    g

let test_induced_subgraph () =
  let g = chain 5 in
  let sub, mapping = Ddg.induced g [ 1; 2; 3 ] in
  Alcotest.(check int) "sub size" 3 (Ddg.size sub);
  Alcotest.(check int) "sub edges" 2 (Array.length (Ddg.edges sub));
  Alcotest.(check (array int)) "mapping" [| 1; 2; 3 |] mapping

let test_induced_rejects_duplicates () =
  let g = chain 3 in
  Alcotest.check_raises "dup" (Invalid_argument "Ddg.induced: duplicate id")
    (fun () -> ignore (Ddg.induced g [ 1; 1 ]))

(* The content id ignores the graph name and nothing else: every
   opcode, instruction name, endpoint, latency and distance moves it. *)
let test_content_id () =
  let build ?(opcode = Opcode.Add) ?(name = "x") ?(latency = 1)
      ?(distance = 0) () =
    let b = Ddg.Builder.create ~name:"g" () in
    let a = Ddg.Builder.add_instr b Opcode.Add in
    let c = Ddg.Builder.add_instr b ~name opcode in
    Ddg.Builder.add_dep b ~latency ~src:a ~dst:c;
    if distance > 0 then Ddg.Builder.add_dep b ~distance ~src:c ~dst:a;
    Ddg.content_id (Ddg.Builder.freeze b)
  in
  let base = build () in
  Alcotest.(check int) "rebuilt" base (build ());
  let g = chain 4 in
  Alcotest.(check int) "renamed" (Ddg.content_id g)
    (Ddg.content_id (Ddg.with_name g "other"));
  Alcotest.(check int) "text round trip" (Ddg.content_id g)
    (Ddg.content_id (Result.get_ok (Ddg_io.of_string (Ddg_io.to_string g))));
  List.iter
    (fun (what, id) -> Alcotest.(check bool) what true (id <> base))
    [
      ("opcode", build ~opcode:Opcode.Sub ());
      ("constant", build ~opcode:(Opcode.Const 3) ());
      ("instruction name", build ~name:"y" ());
      ("latency", build ~latency:2 ());
      ("distance", build ~distance:1 ());
    ]

let test_memory_ops_count () =
  let b = Ddg.Builder.create () in
  let a = Ddg.Builder.add_instr b Opcode.Agen in
  let l = Ddg.Builder.add_instr b Opcode.Load in
  let s = Ddg.Builder.add_instr b Opcode.Store in
  Ddg.Builder.add_dep b ~src:a ~dst:l;
  Ddg.Builder.add_dep b ~src:l ~dst:s;
  let g = Ddg.Builder.freeze b in
  Alcotest.(check int) "memory ops" 2 (Ddg.memory_ops g)

(* --- graph algorithms --------------------------------------------- *)

let test_topological_order () =
  let g = chain 6 in
  let order = Graph_algo.topological_order g in
  let pos = Array.make 6 0 in
  Array.iteri (fun i u -> pos.(u) <- i) order;
  Ddg.iter_edges
    (fun e ->
      if e.Ddg.distance = 0 then
        Alcotest.(check bool) "edge forward" true (pos.(e.Ddg.src) < pos.(e.Ddg.dst)))
    g

let test_depth_height_critical_path () =
  let g = chain 4 in
  let d = Graph_algo.depth g and h = Graph_algo.height g in
  Alcotest.(check int) "depth of head" 0 d.(0);
  Alcotest.(check int) "depth of tail" 3 d.(3);
  Alcotest.(check int) "height of head" 3 h.(0);
  Alcotest.(check int) "height of tail" 0 h.(3);
  Alcotest.(check int) "critical path" 3 (Graph_algo.critical_path g)

let test_sccs_cycle () =
  let g = cycle 4 in
  let comps = Graph_algo.nontrivial_sccs g in
  Alcotest.(check int) "one component" 1 (Array.length comps);
  Alcotest.(check int) "full size" 4 (List.length comps.(0))

let test_sccs_dag_trivial () =
  let g = chain 4 in
  Alcotest.(check int) "no recurrence" 0
    (Array.length (Graph_algo.nontrivial_sccs g))

let test_self_loop_scc () =
  let b = Ddg.Builder.create () in
  let x = Ddg.Builder.add_instr b Opcode.Add in
  Ddg.Builder.add_dep b ~distance:1 ~src:x ~dst:x;
  let g = Ddg.Builder.freeze b in
  Alcotest.(check int) "self loop counts" 1
    (Array.length (Graph_algo.nontrivial_sccs g))

(* --- MII ----------------------------------------------------------- *)

let test_rec_mii_no_recurrence () =
  Alcotest.(check int) "dag" 1 (Mii.rec_mii (chain 8))

let test_rec_mii_cycles () =
  List.iter
    (fun k -> Alcotest.(check int) (Printf.sprintf "cycle %d" k) k (Mii.rec_mii (cycle k)))
    [ 1; 2; 3; 5; 7 ]

let test_rec_mii_distance_divides () =
  (* Cycle of latency 4 at distance 2 => MII = 2. *)
  let b = Ddg.Builder.create () in
  let ids = Array.init 4 (fun _ -> Ddg.Builder.add_instr b Opcode.Add) in
  for i = 0 to 2 do
    Ddg.Builder.add_dep b ~src:ids.(i) ~dst:ids.(i + 1)
  done;
  Ddg.Builder.add_dep b ~distance:2 ~src:ids.(3) ~dst:ids.(0);
  let g = Ddg.Builder.freeze b in
  Alcotest.(check int) "lat4/dist2" 2 (Mii.rec_mii g)

let test_rec_mii_max_over_cycles () =
  let b = Ddg.Builder.create () in
  let x = Ddg.Builder.add_instr b Opcode.Add in
  Ddg.Builder.add_dep b ~distance:1 ~src:x ~dst:x;
  let ids = Array.init 5 (fun _ -> Ddg.Builder.add_instr b Opcode.Add) in
  for i = 0 to 3 do
    Ddg.Builder.add_dep b ~src:ids.(i) ~dst:ids.(i + 1)
  done;
  Ddg.Builder.add_dep b ~distance:1 ~src:ids.(4) ~dst:ids.(0);
  let g = Ddg.Builder.freeze b in
  Alcotest.(check int) "max cycle wins" 5 (Mii.rec_mii g)

let test_res_mii_issue_bound () =
  let g = chain 100 in
  let r = { default_resources with issue_slots = 32; alu_slots = 32; ag_slots = 32 } in
  Alcotest.(check int) "100 ops / 32 slots" 4 (Mii.res_mii g r)

let test_res_mii_dma_bound () =
  let b = Ddg.Builder.create () in
  let a = Ddg.Builder.add_instr b Opcode.Agen in
  for _ = 1 to 20 do
    let l = Ddg.Builder.add_instr b Opcode.Load in
    Ddg.Builder.add_dep b ~src:a ~dst:l
  done;
  let g = Ddg.Builder.freeze b in
  Alcotest.(check int) "20 mem / 8 ports" 3 (Mii.res_mii g default_resources)

let test_mii_combines () =
  let g = cycle 5 in
  Alcotest.(check int) "rec dominates" 5 (Mii.mii g default_resources)

let test_achievable () =
  let g = cycle 3 in
  Alcotest.(check bool) "ii=2 impossible" false (Mii.achievable g ~ii:2);
  Alcotest.(check bool) "ii=3 fine" true (Mii.achievable g ~ii:3)

(* --- serialisation -------------------------------------------------- *)

let test_text_roundtrip () =
  let g = Hca_kernels.Fir2dim.ddg () in
  match Ddg_io.of_string (Ddg_io.to_string g) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok g' ->
      Alcotest.(check bool) "structure equal" true (Ddg.equal_structure g g')

let test_parse_errors () =
  (match Ddg_io.of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty input should fail");
  (match Ddg_io.of_string "ddg t\ni 0 add a\ne 0 5 1 0\n" with
  | Error e -> Alcotest.(check bool) "line number" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "bad edge should fail");
  match Ddg_io.of_string "ddg t\ni 3 add a\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-dense ids should fail"

let test_dot_output () =
  let g = cycle 2 in
  let dot = Ddg_io.to_dot g in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "dashed carried edge" true
    (let re = "style=dashed" in
     let rec search i =
       i + String.length re <= String.length dot
       && (String.sub dot i (String.length re) = re || search (i + 1))
     in
     search 0)

let test_dot_clustered () =
  let g = chain 2 in
  let dot = Ddg_io.to_dot ~cluster_of:(fun i -> Some (string_of_int i)) g in
  Alcotest.(check bool) "subgraph present" true
    (let re = "subgraph cluster_" in
     let rec search i =
       i + String.length re <= String.length dot
       && (String.sub dot i (String.length re) = re || search (i + 1))
     in
     search 0)

(* --- properties ----------------------------------------------------- *)

let synthetic_gen =
  QCheck.Gen.(
    map
      (fun (size, layers, seed) ->
        Hca_kernels.Synthetic.generate
          {
            Hca_kernels.Synthetic.default with
            size = 8 + size;
            layers = 1 + layers;
            seed;
          })
      (triple (int_bound 60) (int_bound 6) (int_bound 10000)))

let arbitrary_ddg = QCheck.make ~print:(fun g -> Ddg.name g) synthetic_gen

let prop_topo_respects_edges =
  QCheck.Test.make ~name:"topological order respects intra edges" ~count:60
    arbitrary_ddg (fun g ->
      let order = Graph_algo.topological_order g in
      let pos = Array.make (Ddg.size g) 0 in
      Array.iteri (fun i u -> pos.(u) <- i) order;
      Array.for_all
        (fun (e : Ddg.edge) -> e.distance > 0 || pos.(e.src) < pos.(e.dst))
        (Ddg.edges g))

let prop_rec_mii_achievable =
  QCheck.Test.make ~name:"rec_mii is achievable and minimal" ~count:40
    arbitrary_ddg (fun g ->
      let m = Mii.rec_mii g in
      Mii.achievable g ~ii:m && (m = 1 || not (Mii.achievable g ~ii:(m - 1))))

let prop_depth_height_bound =
  QCheck.Test.make ~name:"depth + height <= critical path" ~count:60
    arbitrary_ddg (fun g ->
      let d = Graph_algo.depth g and h = Graph_algo.height g in
      let cp = Graph_algo.critical_path g in
      Array.for_all (fun i -> d.(i.Instr.id) + h.(i.Instr.id) <= cp) (Ddg.instrs g))

let prop_serialisation_roundtrip =
  QCheck.Test.make ~name:"text serialisation round-trips" ~count:40
    arbitrary_ddg (fun g ->
      match Ddg_io.of_string (Ddg_io.to_string g) with
      | Ok g' -> Ddg.equal_structure g g'
      | Error _ -> false)

let () =
  Alcotest.run "ddg"
    [
      ( "opcode",
        [
          Alcotest.test_case "mnemonic roundtrip" `Quick test_opcode_roundtrip;
          Alcotest.test_case "const roundtrip" `Quick test_opcode_const_roundtrip;
          Alcotest.test_case "unit classes" `Quick test_opcode_classes;
          Alcotest.test_case "latencies" `Quick test_opcode_latencies;
        ] );
      ( "builder",
        [
          Alcotest.test_case "dense ids" `Quick test_builder_dense_ids;
          Alcotest.test_case "bad edges" `Quick test_builder_rejects_bad_edges;
          Alcotest.test_case "intra cycle" `Quick test_builder_rejects_intra_cycle;
          Alcotest.test_case "carried cycle ok" `Quick test_builder_allows_carried_cycle;
          Alcotest.test_case "default latency" `Quick test_default_latency_from_producer;
          Alcotest.test_case "preds/succs" `Quick test_preds_succs_consistency;
          Alcotest.test_case "induced" `Quick test_induced_subgraph;
          Alcotest.test_case "induced dup" `Quick test_induced_rejects_duplicates;
          Alcotest.test_case "memory ops" `Quick test_memory_ops_count;
          Alcotest.test_case "content id" `Quick test_content_id;
        ] );
      ( "graph-algo",
        [
          Alcotest.test_case "topological" `Quick test_topological_order;
          Alcotest.test_case "depth/height/cp" `Quick test_depth_height_critical_path;
          Alcotest.test_case "scc cycle" `Quick test_sccs_cycle;
          Alcotest.test_case "scc dag" `Quick test_sccs_dag_trivial;
          Alcotest.test_case "self loop" `Quick test_self_loop_scc;
          QCheck_alcotest.to_alcotest prop_topo_respects_edges;
          QCheck_alcotest.to_alcotest prop_depth_height_bound;
        ] );
      ( "mii",
        [
          Alcotest.test_case "no recurrence" `Quick test_rec_mii_no_recurrence;
          Alcotest.test_case "cycles" `Quick test_rec_mii_cycles;
          Alcotest.test_case "distance divides" `Quick test_rec_mii_distance_divides;
          Alcotest.test_case "max over cycles" `Quick test_rec_mii_max_over_cycles;
          Alcotest.test_case "issue bound" `Quick test_res_mii_issue_bound;
          Alcotest.test_case "dma bound" `Quick test_res_mii_dma_bound;
          Alcotest.test_case "combined" `Quick test_mii_combines;
          Alcotest.test_case "achievable" `Quick test_achievable;
          QCheck_alcotest.to_alcotest prop_rec_mii_achievable;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_text_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "dot" `Quick test_dot_output;
          Alcotest.test_case "dot clustered" `Quick test_dot_clustered;
          QCheck_alcotest.to_alcotest prop_serialisation_roundtrip;
        ] );
    ]
