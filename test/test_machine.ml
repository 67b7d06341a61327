(* Tests for the machine models: resource tables, pattern graphs, copy
   flow, DSPFabric and RCP descriptions, and the wire-level model. *)

open Hca_machine
open Hca_ddg

(* --- resources ------------------------------------------------------ *)

let r alus ags = { Resource.alus; ags }

let test_resource_arith () =
  Alcotest.(check bool) "add" true
    (Resource.equal (r 3 5) (Resource.add (r 1 2) (r 2 3)));
  Alcotest.(check bool) "scale" true (Resource.equal (r 8 8) (Resource.scale 8 Resource.cn))

let test_resource_classes () =
  Alcotest.(check bool) "alu demand" true
    (Resource.equal (r 1 0) (Resource.of_unit_class Opcode.Alu));
  Alcotest.(check bool) "ag demand" true
    (Resource.equal (r 0 1) (Resource.of_unit_class Opcode.Ag))

let test_resource_fits_single_issue () =
  (* One CN: 1 ALU + 1 AG but single issue => 2 ALU ops need ii 2. *)
  let cap = Resource.cn in
  Alcotest.(check bool) "1 op at ii 1" true
    (Resource.fits ~demand:(r 1 0) ~capacity:cap ~ii:1);
  Alcotest.(check bool) "alu+ag at ii 1 blocked by issue" false
    (Resource.fits ~demand:(r 1 1) ~capacity:cap ~ii:1);
  Alcotest.(check bool) "alu+ag at ii 2" true
    (Resource.fits ~demand:(r 1 1) ~capacity:cap ~ii:2)

let test_resource_min_ii () =
  Alcotest.(check int) "empty" 1 (Resource.min_ii ~demand:Resource.zero ~capacity:Resource.cn);
  Alcotest.(check int) "issue bound" 5
    (Resource.min_ii ~demand:(r 3 2) ~capacity:Resource.cn);
  Alcotest.(check int) "no ag capacity" max_int
    (Resource.min_ii ~demand:(r 0 1) ~capacity:(r 4 0))

let test_resource_demand () =
  let g = Hca_kernels.Fir2dim.ddg () in
  let all = List.init (Ddg.size g) (fun i -> i) in
  let d = Resource.demand g all in
  Alcotest.(check int) "total" (Ddg.size g) (d.Resource.alus + d.Resource.ags)

(* --- pattern graph --------------------------------------------------- *)

let complete4 () =
  Pattern_graph.complete ~name:"t" ~capacities:(Array.make 4 (r 4 4)) ~max_in:2

let test_pg_complete () =
  let pg = complete4 () in
  Alcotest.(check int) "size" 4 (Pattern_graph.size pg);
  Alcotest.(check bool) "no self arc" false (Pattern_graph.is_potential pg ~src:0 ~dst:0);
  Alcotest.(check bool) "cross arc" true (Pattern_graph.is_potential pg ~src:0 ~dst:3);
  Alcotest.(check int) "preds" 3 (List.length (Pattern_graph.potential_preds pg 1))

let test_pg_with_ports () =
  let pg =
    Pattern_graph.with_ports (complete4 ())
      ~inputs:[ (0, [ 10; 11 ]); (1, [ 12 ]) ]
      ~outputs:[ (0, [ 13 ]) ]
  in
  Alcotest.(check int) "size" 7 (Pattern_graph.size pg);
  Alcotest.(check int) "in ports" 2 (List.length (Pattern_graph.in_ports pg));
  Alcotest.(check int) "out ports" 1 (List.length (Pattern_graph.out_ports pg));
  (* Input ports reach every regular node but not other ports. *)
  Alcotest.(check bool) "in->reg" true (Pattern_graph.is_potential pg ~src:4 ~dst:0);
  Alcotest.(check bool) "in->out" false (Pattern_graph.is_potential pg ~src:4 ~dst:6);
  Alcotest.(check bool) "reg->out" true (Pattern_graph.is_potential pg ~src:2 ~dst:6);
  Alcotest.(check bool) "out is sink" false (Pattern_graph.is_potential pg ~src:6 ~dst:0);
  let port = List.hd (Pattern_graph.in_ports pg) in
  Alcotest.(check (list int)) "port values" [ 10; 11 ] (Pattern_graph.port_values port)

let test_pg_double_ports_rejected () =
  let pg = Pattern_graph.with_ports (complete4 ()) ~inputs:[ (0, [ 1 ]) ] ~outputs:[] in
  Alcotest.check_raises "double ports"
    (Invalid_argument "Pattern_graph.with_ports: graph already has ports")
    (fun () -> ignore (Pattern_graph.with_ports pg ~inputs:[] ~outputs:[]))

let test_pg_adjacency () =
  let pg =
    Pattern_graph.of_adjacency ~name:"ring" ~capacities:(Array.make 3 (r 1 1))
      ~max_in:1 ~potential:[ (0, 1); (1, 2); (2, 0) ]
  in
  Alcotest.(check bool) "0->1" true (Pattern_graph.is_potential pg ~src:0 ~dst:1);
  Alcotest.(check bool) "1->0 absent" false (Pattern_graph.is_potential pg ~src:1 ~dst:0)

(* --- copy flow -------------------------------------------------------- *)

let test_flow_add_and_query () =
  let flow = Copy_flow.create (complete4 ()) in
  Copy_flow.add_copy flow ~src:0 ~dst:1 7;
  Copy_flow.add_copy flow ~src:0 ~dst:1 8;
  Copy_flow.add_copy flow ~src:0 ~dst:1 7;
  let frozen = Copy_flow.freeze flow in
  Alcotest.(check (list int)) "dedup, order kept" [ 7; 8 ]
    (Copy_flow.Frozen.copies frozen ~src:0 ~dst:1);
  Alcotest.(check int) "count" 2 (Copy_flow.copy_count flow);
  Alcotest.(check (list int)) "in neighbors" [ 0 ]
    (Copy_flow.Frozen.real_in_neighbors frozen 1);
  Alcotest.(check int) "in pressure" 2 (Copy_flow.in_pressure flow 1);
  Alcotest.(check int) "out pressure" 2 (Copy_flow.out_pressure flow 0);
  (* The frozen view does not follow later mutations. *)
  Copy_flow.add_copy flow ~src:2 ~dst:1 9;
  Alcotest.(check int) "frozen count" 2 (Copy_flow.Frozen.copy_count frozen);
  let dropped = Copy_flow.Frozen.remove_copy frozen ~src:0 ~dst:1 7 in
  Alcotest.(check (list int)) "dropped one" [ 8 ]
    (Copy_flow.Frozen.copies dropped ~src:0 ~dst:1);
  Alcotest.(check int) "dropped pressure" 1
    (Copy_flow.Frozen.in_pressure dropped 1)

(* The frozen view answers what the live flow's counters say: one
   random routing per case over a PG with ports, frozen at the end. *)
let prop_freeze_agrees =
  QCheck.Test.make ~name:"frozen view agrees with the live counters" ~count:200
    QCheck.(pair (int_range 0 10_000) (int_range 1 40))
    (fun (seed, moves) ->
      let rng = Random.State.make [| seed |] in
      let pg =
        Pattern_graph.with_ports (complete4 ())
          ~inputs:[ (0, [ 1; 2 ]); (1, [ 3 ]) ]
          ~outputs:[ (0, [ 4 ]) ]
      in
      let n = Pattern_graph.size pg in
      let flow = Copy_flow.create pg in
      for _ = 1 to moves do
        let src = Random.State.int rng n and dst = Random.State.int rng n in
        if Copy_flow.can_add flow ~src ~dst then
          Copy_flow.add_copy flow ~src ~dst (Random.State.int rng 6)
      done;
      let f = Copy_flow.freeze flow in
      Copy_flow.Frozen.copy_count f = Copy_flow.copy_count flow
      && List.for_all
           (fun id ->
             Copy_flow.Frozen.in_pressure f id = Copy_flow.in_pressure flow id
             && List.length (Copy_flow.Frozen.real_in_neighbors f id)
                = Copy_flow.real_in_count flow id
             && List.for_all
                  (fun dst ->
                    Copy_flow.Frozen.copies f ~src:id ~dst <> [])
                  (Copy_flow.Frozen.real_out_neighbors f id))
           (List.init n Fun.id)
      && List.length (List.concat_map (fun (_, _, vs) -> vs) (Copy_flow.Frozen.arcs f))
         = Copy_flow.copy_count flow)

let test_flow_max_in_enforced () =
  let flow = Copy_flow.create (complete4 ()) in
  Copy_flow.add_copy flow ~src:1 ~dst:0 1;
  Copy_flow.add_copy flow ~src:2 ~dst:0 2;
  (* max_in = 2: a third distinct source is rejected. *)
  Alcotest.(check bool) "third source blocked" false
    (Copy_flow.can_add flow ~src:3 ~dst:0);
  (* But more values on an existing arc are fine. *)
  Alcotest.(check bool) "existing arc open" true
    (Copy_flow.can_add flow ~src:1 ~dst:0);
  Alcotest.check_raises "add_copy checks"
    (Invalid_argument "Copy_flow.add_copy: arc 3->0 not allowed") (fun () ->
      Copy_flow.add_copy flow ~src:3 ~dst:0 9)

let test_flow_out_port_unary () =
  let pg =
    Pattern_graph.with_ports (complete4 ()) ~inputs:[] ~outputs:[ (0, [ 1; 2 ]) ]
  in
  let flow = Copy_flow.create pg in
  let port = (List.hd (Pattern_graph.out_ports pg)).Pattern_graph.id in
  Copy_flow.add_copy flow ~src:0 ~dst:port 1;
  Alcotest.(check bool) "same cluster again" true (Copy_flow.can_add flow ~src:0 ~dst:port);
  Alcotest.(check bool) "second cluster rejected" false
    (Copy_flow.can_add flow ~src:1 ~dst:port)

let test_flow_in_port_limit () =
  let pg =
    Pattern_graph.with_ports (complete4 ()) ~inputs:[ (0, [ 1 ]); (1, [ 2 ]) ]
      ~outputs:[]
  in
  let flow = Copy_flow.create ~max_in_ports:1 pg in
  let ports = List.map (fun (n : Pattern_graph.node) -> n.id) (Pattern_graph.in_ports pg) in
  match ports with
  | [ p1; p2 ] ->
      Copy_flow.add_copy flow ~src:p1 ~dst:0 1;
      Alcotest.(check bool) "second port blocked" false
        (Copy_flow.can_add flow ~src:p2 ~dst:1);
      Alcotest.(check bool) "same port ok" true (Copy_flow.can_add flow ~src:p1 ~dst:1)
  | _ -> Alcotest.fail "expected two ports"

let test_flow_reserved_backbone () =
  let flow = Copy_flow.create (complete4 ()) in
  Copy_flow.reserve_neighbor flow ~src:1 ~dst:0;
  Copy_flow.add_copy flow ~src:2 ~dst:0 5;
  (* Reserved + one real = in-degree budget (2) committed. *)
  Alcotest.(check bool) "third blocked" false (Copy_flow.can_add flow ~src:3 ~dst:0);
  Alcotest.(check bool) "reserved arc open" true (Copy_flow.can_add flow ~src:1 ~dst:0);
  Copy_flow.add_copy flow ~src:1 ~dst:0 6;
  Alcotest.(check int) "copies" 2 (Copy_flow.copy_count flow)

let test_flow_clone_isolation () =
  let flow = Copy_flow.create (complete4 ()) in
  Copy_flow.add_copy flow ~src:0 ~dst:1 1;
  let copy = Copy_flow.snapshot flow in
  Copy_flow.add_copy copy ~src:0 ~dst:1 2;
  Alcotest.(check int) "original untouched" 1 (Copy_flow.copy_count flow);
  Alcotest.(check int) "clone grew" 2 (Copy_flow.copy_count copy);
  (* Mid-mark: the snapshot keeps the speculative copy after the
     original rewinds it. *)
  let mark = Copy_flow.push_mark flow in
  Copy_flow.add_copy flow ~src:2 ~dst:3 7;
  let mid = Copy_flow.snapshot flow in
  Copy_flow.undo_to_mark flow mark;
  Alcotest.(check (list int)) "rewound" []
    (Copy_flow.Frozen.copies (Copy_flow.freeze flow) ~src:2 ~dst:3);
  Alcotest.(check (list int)) "snapshot kept it" [ 7 ]
    (Copy_flow.Frozen.copies (Copy_flow.freeze mid) ~src:2 ~dst:3)

(* --- dspfabric -------------------------------------------------------- *)

let test_fabric_reference () =
  let f = Dspfabric.reference in
  Alcotest.(check int) "64 CNs" 64 (Dspfabric.total_cns f);
  Alcotest.(check int) "3 levels" 3 (Dspfabric.depth f);
  let levels = Machine_desc.levels f in
  Alcotest.(check int) "N" 8 levels.(0).Machine_desc.mux_cap;
  Alcotest.(check int) "K" 8 levels.(2).Machine_desc.mux_cap;
  Alcotest.(check int) "dma" 8 (Dspfabric.dma_ports f)

let test_fabric_level_views () =
  let f = Dspfabric.reference in
  let v0 = Dspfabric.level_view f ~level:0 in
  Alcotest.(check int) "level0 children" 4 v0.Dspfabric.children;
  Alcotest.(check int) "level0 cns" 16 v0.Dspfabric.cns_per_child;
  Alcotest.(check bool) "level0 not leaf" false v0.Dspfabric.is_leaf;
  Alcotest.(check int) "level0 mux" 8 v0.Dspfabric.mux_capacity;
  let v2 = Dspfabric.level_view f ~level:2 in
  Alcotest.(check bool) "leaf" true v2.Dspfabric.is_leaf;
  Alcotest.(check int) "leaf in wires" 2 v2.Dspfabric.mux_capacity;
  Alcotest.(check int) "leaf out wires" 1 v2.Dspfabric.out_capacity;
  Alcotest.(check int) "leaf K" 8 v2.Dspfabric.max_in_ports;
  Alcotest.(check bool) "leaf capacity is one CN" true
    (Array.for_all (Resource.equal Resource.cn)
       (Dspfabric.child_capacities f ~path:[ 0; 0 ]))

let test_fabric_validation () =
  Alcotest.check_raises "bad N"
    (Invalid_argument "Dspfabric.make: MUX capacities must be positive")
    (fun () -> ignore (Dspfabric.make ~n:0 ~m:1 ~k:1 ()));
  Alcotest.check_raises "bad level"
    (Invalid_argument "Machine_desc.level_view: level out of range") (fun () ->
      ignore (Dspfabric.level_view Dspfabric.reference ~level:3))

let test_fabric_resources () =
  let r = Dspfabric.resources Dspfabric.reference in
  Alcotest.(check int) "issue" 64 r.Mii.issue_slots;
  Alcotest.(check int) "dma" 8 r.Mii.dma_ports

(* --- rcp --------------------------------------------------------------- *)

let test_rcp_sources () =
  let t = Rcp.default in
  Alcotest.(check int) "8 clusters" 8 (Rcp.clusters t);
  Alcotest.(check (list int)) "ring neighbours of 0" [ 1; 2; 6; 7 ]
    (Rcp.potential_sources t 0)

let test_rcp_pattern_graph () =
  let pg = Rcp.pattern_graph Rcp.default in
  Alcotest.(check int) "nodes" 8 (Pattern_graph.size pg);
  Alcotest.(check int) "max_in = ports" 2 (Pattern_graph.max_in pg);
  Alcotest.(check bool) "ring arc" true (Pattern_graph.is_potential pg ~src:1 ~dst:0);
  Alcotest.(check bool) "far arc absent" false (Pattern_graph.is_potential pg ~src:4 ~dst:0);
  (* Heterogeneous: odd clusters have no AG. *)
  let cap1 = (Pattern_graph.node pg 1).Pattern_graph.capacity in
  Alcotest.(check int) "no ag on odd" 0 cap1.Resource.ags;
  let cap0 = (Pattern_graph.node pg 0).Pattern_graph.capacity in
  Alcotest.(check int) "ag on even" 1 cap0.Resource.ags

(* --- machine model ------------------------------------------------------ *)

let test_model_wires () =
  let m = Machine_model.create ~nodes:4 ~in_capacity:2 ~out_capacity:2 in
  let w = Option.get (Machine_model.alloc_out_wire m 0) in
  Alcotest.(check int) "owner" 0 (Machine_model.owner m w);
  Alcotest.(check int) "free out" 1 (Machine_model.free_out_wires m 0);
  (match Machine_model.connect m ~wire:w ~dst:1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Machine_model.put_value m ~wire:w 42;
  Alcotest.(check (list int)) "payload" [ 42 ] (Machine_model.wire_values m w);
  Alcotest.(check (list int)) "sinks" [ 1 ] (Machine_model.wire_sinks m w);
  Alcotest.(check int) "in slots" 1 (Machine_model.free_in_slots m 1);
  Alcotest.(check bool) "validate" true (Machine_model.validate m = Ok ())

let test_model_connect_errors () =
  let m = Machine_model.create ~nodes:2 ~in_capacity:1 ~out_capacity:1 in
  let w = Option.get (Machine_model.alloc_out_wire m 0) in
  (match Machine_model.connect m ~wire:w ~dst:0 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "self feed allowed");
  (match Machine_model.connect m ~wire:w ~dst:1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Machine_model.connect m ~wire:w ~dst:1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate feed allowed");
  Alcotest.(check bool) "out exhausted" true (Machine_model.alloc_out_wire m 0 = None)

let test_model_external_reservations () =
  let m = Machine_model.create ~nodes:2 ~in_capacity:2 ~out_capacity:1 in
  (match Machine_model.reserve_external_in m ~dst:0 ~label:7 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list int)) "labels" [ 7 ] (Machine_model.external_ins m 0);
  Alcotest.(check int) "slot consumed" 1 (Machine_model.free_in_slots m 0);
  let w1 =
    match Machine_model.reserve_external_out m ~src:1 ~label:3 with
    | Ok w -> w
    | Error e -> Alcotest.fail e
  in
  (* Out capacity is 1: the second reservation shares the wire. *)
  let w2 =
    match Machine_model.reserve_external_out m ~src:1 ~label:4 with
    | Ok w -> w
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "shared wire" w1 w2;
  Alcotest.(check bool) "validate" true (Machine_model.validate m = Ok ())

let test_model_max_wire_load () =
  let m = Machine_model.create ~nodes:2 ~in_capacity:2 ~out_capacity:1 in
  let w = Option.get (Machine_model.alloc_out_wire m 0) in
  List.iter (fun v -> Machine_model.put_value m ~wire:w v) [ 1; 2; 3 ];
  Alcotest.(check int) "load" 3 (Machine_model.max_wire_load m)

let test_model_clone () =
  let m = Machine_model.create ~nodes:2 ~in_capacity:1 ~out_capacity:1 in
  let w = Option.get (Machine_model.alloc_out_wire m 0) in
  let m' = Machine_model.clone m in
  Machine_model.put_value m' ~wire:w 9;
  Alcotest.(check (list int)) "original empty" [] (Machine_model.wire_values m w)

let () =
  Alcotest.run "machine"
    [
      ( "resource",
        [
          Alcotest.test_case "arith" `Quick test_resource_arith;
          Alcotest.test_case "classes" `Quick test_resource_classes;
          Alcotest.test_case "single issue" `Quick test_resource_fits_single_issue;
          Alcotest.test_case "min_ii" `Quick test_resource_min_ii;
          Alcotest.test_case "demand" `Quick test_resource_demand;
        ] );
      ( "pattern-graph",
        [
          Alcotest.test_case "complete" `Quick test_pg_complete;
          Alcotest.test_case "ports" `Quick test_pg_with_ports;
          Alcotest.test_case "double ports" `Quick test_pg_double_ports_rejected;
          Alcotest.test_case "adjacency" `Quick test_pg_adjacency;
        ] );
      ( "copy-flow",
        [
          Alcotest.test_case "add/query" `Quick test_flow_add_and_query;
          Alcotest.test_case "max_in" `Quick test_flow_max_in_enforced;
          Alcotest.test_case "out port unary" `Quick test_flow_out_port_unary;
          Alcotest.test_case "in port limit" `Quick test_flow_in_port_limit;
          Alcotest.test_case "reserved backbone" `Quick test_flow_reserved_backbone;
          Alcotest.test_case "clone" `Quick test_flow_clone_isolation;
          QCheck_alcotest.to_alcotest prop_freeze_agrees;
        ] );
      ( "dspfabric",
        [
          Alcotest.test_case "reference" `Quick test_fabric_reference;
          Alcotest.test_case "level views" `Quick test_fabric_level_views;
          Alcotest.test_case "validation" `Quick test_fabric_validation;
          Alcotest.test_case "resources" `Quick test_fabric_resources;
        ] );
      ( "rcp",
        [
          Alcotest.test_case "sources" `Quick test_rcp_sources;
          Alcotest.test_case "pattern graph" `Quick test_rcp_pattern_graph;
        ] );
      ( "machine-model",
        [
          Alcotest.test_case "wires" `Quick test_model_wires;
          Alcotest.test_case "connect errors" `Quick test_model_connect_errors;
          Alcotest.test_case "external" `Quick test_model_external_reservations;
          Alcotest.test_case "wire load" `Quick test_model_max_wire_load;
          Alcotest.test_case "clone" `Quick test_model_clone;
        ] );
    ]
