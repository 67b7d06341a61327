(* Tests for the HCA core: subproblem construction, the SEE, the Route
   Allocator, the Mapper and ILIs, the hierarchical driver, the
   coherency checker and the metrics — including the paper's worked
   examples (Fig. 6 routing, Fig. 10 forced co-location). *)

open Hca_ddg
open Hca_machine
open Hca_core

let r alus ags = { Resource.alus; ags }

(* Small diamond: a feeds b and c, both feed d. *)
let diamond () =
  let b = Ddg.Builder.create ~name:"diamond" () in
  let a = Ddg.Builder.add_instr b ~name:"a" Opcode.Add in
  let x = Ddg.Builder.add_instr b ~name:"x" Opcode.Add in
  let y = Ddg.Builder.add_instr b ~name:"y" Opcode.Add in
  let d = Ddg.Builder.add_instr b ~name:"d" Opcode.Add in
  Ddg.Builder.add_dep b ~src:a ~dst:x;
  Ddg.Builder.add_dep b ~src:a ~dst:y;
  Ddg.Builder.add_dep b ~src:x ~dst:d;
  Ddg.Builder.add_dep b ~src:y ~dst:d;
  Ddg.Builder.freeze b

let complete4 ?(cap = r 4 4) ?(max_in = 2) () =
  Pattern_graph.complete ~name:"t" ~capacities:(Array.make 4 cap) ~max_in

(* --- problem ------------------------------------------------------- *)

let test_problem_of_ddg () =
  let p = Problem.of_ddg ~name:"p" ~ddg:(diamond ()) ~pg:(complete4 ()) () in
  Alcotest.(check int) "nodes" 4 (Problem.size p);
  Alcotest.(check int) "free" 4 (List.length (Problem.free_nodes p));
  Alcotest.(check int) "edges" 4 (Array.length (Problem.edges p))

let test_problem_of_ddg_rejects_ports () =
  let pg = Pattern_graph.with_ports (complete4 ()) ~inputs:[ (0, [ 0 ]) ] ~outputs:[] in
  Alcotest.check_raises "ports"
    (Invalid_argument "Problem.of_ddg: PG must be port-free (use of_working_set)")
    (fun () -> ignore (Problem.of_ddg ~name:"p" ~ddg:(diamond ()) ~pg ()))

let test_problem_working_set_ports () =
  let ddg = diamond () in
  (* WS = {x, d}: value a arrives on a wire, y's value arrives on
     another; d's result leaves. *)
  let pg =
    Pattern_graph.with_ports (complete4 ())
      ~inputs:[ (0, [ 0 ]); (1, [ 2 ]) ]
      ~outputs:[ (0, [ 3 ]) ]
  in
  match Problem.of_working_set ~name:"p" ~ddg ~ws:[ 1; 3 ] ~pg () with
  | Error e -> Alcotest.fail e
  | Ok p ->
      (* 2 ws nodes + 2 in ports + 1 out port. *)
      Alcotest.(check int) "nodes" 5 (Problem.size p);
      Alcotest.(check int) "free" 2 (List.length (Problem.free_nodes p));
      Alcotest.(check int) "no forwards" 0 (List.length (Problem.forwards p));
      (* Edges: in0 -> x (value a), in0 -> d? no (d consumes x, y):
         x -> d (value x), in1 -> d (value y), d -> out (value d). *)
      Alcotest.(check int) "edges" 4 (Array.length (Problem.edges p))

let test_problem_missing_input_fails () =
  let ddg = diamond () in
  let pg = Pattern_graph.with_ports (complete4 ()) ~inputs:[] ~outputs:[] in
  match Problem.of_working_set ~name:"p" ~ddg ~ws:[ 3 ] ~pg () with
  | Error e ->
      Alcotest.(check bool) "mentions port" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "consumer without input port must fail"

let test_problem_pass_through_forward () =
  let ddg = diamond () in
  (* WS empty of the producer of value 0, yet value 0 is owed out:
     a forward node must appear. *)
  let pg =
    Pattern_graph.with_ports (complete4 ())
      ~inputs:[ (0, [ 0 ]) ]
      ~outputs:[ (0, [ 0 ]) ]
  in
  match Problem.of_working_set ~name:"p" ~ddg ~ws:[] ~pg () with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int) "one forward" 1 (List.length (Problem.forwards p));
      let fwd = List.hd (Problem.forwards p) in
      Alcotest.(check int) "forward value" 0 fwd.Problem.value;
      Alcotest.(check bool) "forward demands an ALU slot" true
        (Resource.equal fwd.Problem.demand (r 1 0))

let test_problem_orphan_output_fails () =
  let ddg = diamond () in
  let pg =
    Pattern_graph.with_ports (complete4 ()) ~inputs:[] ~outputs:[ (0, [ 0 ]) ]
  in
  match Problem.of_working_set ~name:"p" ~ddg ~ws:[] ~pg () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "owed value without source must fail"

let test_problem_height_depth () =
  let p = Problem.of_ddg ~name:"p" ~ddg:(diamond ()) ~pg:(complete4 ()) () in
  let h = Problem.height p in
  Alcotest.(check int) "height of a" 2 h.(0)

(* [Problem] runs on [Graph_algo.Make]; [Problem_ref] keeps the walks it
   used to carry.  Circuit ids are only ever compared for equality, so
   two id arrays agree when they describe the same partition: the same
   nodes off every circuit, and a bijection between the ids of the
   rest. *)
let same_partition a b =
  let fwd = Hashtbl.create 8 and bwd = Hashtbl.create 8 in
  let maps tbl x y =
    match Hashtbl.find_opt tbl x with
    | Some y' -> y' = y
    | None ->
        Hashtbl.replace tbl x y;
        true
  in
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         if x = -1 || y = -1 then x = y else maps fwd x y && maps bwd y x)
       a b

let agrees_with_ref p =
  Problem.height p = Problem_ref.height p
  && same_partition (Problem.scc_of p) (Problem_ref.scc_of p)

let prop_problem_walks_subresults =
  QCheck.Test.make ~count:25
    ~name:"heights and circuits equal the reference walks on every subproblem"
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let ddg = Hca_gen.Gen.ddg ~seed () in
      let fabric = Dspfabric.make ~fanouts:[| 2; 2; 2 |] ~n:4 ~m:4 ~k:4 () in
      let root = Problem.of_ddg ~name:"root" ~ddg ~pg:(complete4 ()) () in
      agrees_with_ref root
      &&
      match (Report.run ~jobs:1 fabric ddg).Report.result with
      | None -> true
      | Some res ->
          List.for_all
            (fun sub -> agrees_with_ref (Record_problem.of_subresult res sub))
            (Hierarchy.subresults res))

let test_problem_walks_extended_roots () =
  List.iter
    (fun (name, f) ->
      let ddg = f () in
      let p = Problem.of_ddg ~name ~ddg ~pg:(complete4 ()) () in
      Alcotest.(check (array int)) (name ^ " height") (Problem_ref.height p)
        (Problem.height p);
      Alcotest.(check bool) (name ^ " circuits") true
        (same_partition (Problem_ref.scc_of p) (Problem.scc_of p));
      (* A port-free problem is the kernel itself: the reference depth
         walk is the kernel's ASAP cycle. *)
      Alcotest.(check (array int)) (name ^ " depth") (Graph_algo.depth ddg)
        (Problem_ref.depth p))
    Hca_kernels.Registry.extended

(* --- state ---------------------------------------------------------- *)

let mk_state ?(max_in = 2) () =
  let p = Problem.of_ddg ~name:"p" ~ddg:(diamond ()) ~pg:(complete4 ~max_in ()) () in
  (p, State.create p)

let weights = Cost.default_weights

let test_state_assign_basic () =
  let _, st = mk_state () in
  match State.try_assign st ~node:0 ~cluster:1 ~ii:2 ~target_ii:2 ~weights with
  | Error e -> Alcotest.fail e
  | Ok st' ->
      Alcotest.(check (option int)) "placed" (Some 1) (State.placement st' 0);
      Alcotest.(check (option int)) "input untouched" None (State.placement st 0);
      Alcotest.(check bool) "demand counted" true
        (Resource.equal (r 1 0) (State.demand st' 1))

let test_state_same_cluster_no_copy () =
  let _, st = mk_state () in
  let st = Result.get_ok (State.try_assign st ~node:0 ~cluster:0 ~ii:4 ~target_ii:4 ~weights) in
  let st = Result.get_ok (State.try_assign st ~node:1 ~cluster:0 ~ii:4 ~target_ii:4 ~weights) in
  Alcotest.(check int) "no copies" 0 (Copy_flow.copy_count (State.flow st))

let test_state_cross_cluster_copy () =
  let _, st = mk_state () in
  let st = Result.get_ok (State.try_assign st ~node:0 ~cluster:0 ~ii:4 ~target_ii:4 ~weights) in
  let st = Result.get_ok (State.try_assign st ~node:1 ~cluster:1 ~ii:4 ~target_ii:4 ~weights) in
  Alcotest.(check (list int)) "value 0 on arc" [ 0 ]
    (Copy_flow.Frozen.copies (Copy_flow.freeze (State.flow st)) ~src:0 ~dst:1)

let test_state_resource_rejection () =
  let _, st = mk_state () in
  (* Capacity 4+4 per cluster but single-issue: ii 1 allows 4 ops; put
     all four on one cluster at ii 1: the 5th would fail, but even the
     fourth fits. At ii 0 invalid anyway; use a tiny cluster instead. *)
  let p =
    Problem.of_ddg ~name:"tiny" ~ddg:(diamond ())
      ~pg:(complete4 ~cap:(r 1 0) ())
      ()
  in
  let st0 = State.create p in
  let st1 = Result.get_ok (State.try_assign st0 ~node:0 ~cluster:0 ~ii:1 ~target_ii:1 ~weights) in
  (match State.try_assign st1 ~node:1 ~cluster:0 ~ii:1 ~target_ii:1 ~weights with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "over capacity");
  ignore st

let test_state_comm_rejection () =
  (* max_in 1: d cannot hear from two clusters. *)
  let p = Problem.of_ddg ~name:"p" ~ddg:(diamond ()) ~pg:(complete4 ~max_in:1 ()) () in
  let st = State.create p in
  let st = Result.get_ok (State.try_assign st ~node:0 ~cluster:0 ~ii:8 ~target_ii:8 ~weights) in
  let st = Result.get_ok (State.try_assign st ~node:1 ~cluster:1 ~ii:8 ~target_ii:8 ~weights) in
  let st = Result.get_ok (State.try_assign st ~node:2 ~cluster:2 ~ii:8 ~target_ii:8 ~weights) in
  (* d on cluster 3 would need arcs from 1 and 2: max_in 1 forbids. *)
  match State.try_assign st ~node:3 ~cluster:3 ~ii:8 ~target_ii:8 ~weights with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "two in-neighbours with max_in 1"

let test_state_probe_force_blocked () =
  let p = Problem.of_ddg ~name:"p" ~ddg:(diamond ()) ~pg:(complete4 ~max_in:1 ()) () in
  let st = State.create p in
  let st = Result.get_ok (State.try_assign st ~node:0 ~cluster:0 ~ii:8 ~target_ii:8 ~weights) in
  let st = Result.get_ok (State.try_assign st ~node:1 ~cluster:1 ~ii:8 ~target_ii:8 ~weights) in
  let st = Result.get_ok (State.try_assign st ~node:2 ~cluster:2 ~ii:8 ~target_ii:8 ~weights) in
  match State.probe_force st ~node:3 ~cluster:3 ~ii:8 with
  | Error e -> Alcotest.fail e
  | Ok blocked ->
      (* b's arc 1->3 takes d's single in-neighbour slot; c's is left to
         the Route Allocator. *)
      Alcotest.(check (list (triple int int int)))
        "c->d blocked"
        [ ((Problem.node p 2).Problem.value, 2, 3) ]
        blocked;
      let st' = State.commit_probe st ~target_ii:8 ~weights in
      State.abort_force st;
      Alcotest.(check (option int)) "placed anyway" (Some 3) (State.placement st' 3);
      Alcotest.(check (option int)) "input rewound" None (State.placement st 3)

let test_state_penalty () =
  let _, st = mk_state () in
  let before = State.cost st in
  State.add_penalty st 2.5;
  Alcotest.(check (float 1e-9)) "penalty" (before +. 2.5) (State.cost st)

let test_state_summary_pressure () =
  let _, st = mk_state () in
  let st = Result.get_ok (State.try_assign st ~node:0 ~cluster:0 ~ii:1 ~target_ii:1 ~weights) in
  let st = Result.get_ok (State.try_assign st ~node:1 ~cluster:1 ~ii:1 ~target_ii:1 ~weights) in
  let s = State.summary st ~ii:1 in
  Alcotest.(check int) "one copy" 1 s.Cost.copies;
  Alcotest.(check bool) "projected >= 1" true (s.Cost.projected_ii >= 1)

(* --- router (Fig. 6) ------------------------------------------------- *)

let test_router_detour () =
  (* Machine is a directed chain 0 -> 1 -> 2: assigning consumer to 2
     with producer on 0 requires routing through 1 (Fig. 6 (b)). *)
  let b = Ddg.Builder.create ~name:"pair" () in
  let p0 = Ddg.Builder.add_instr b Opcode.Add in
  let c0 = Ddg.Builder.add_instr b Opcode.Add in
  Ddg.Builder.add_dep b ~src:p0 ~dst:c0;
  let ddg = Ddg.Builder.freeze b in
  let pg =
    Pattern_graph.of_adjacency ~name:"chain" ~capacities:(Array.make 3 (r 2 2))
      ~max_in:1 ~potential:[ (0, 1); (1, 2) ]
  in
  let problem = Problem.of_ddg ~name:"p" ~ddg ~pg () in
  let st = State.create problem in
  let st = Result.get_ok (State.try_assign st ~node:0 ~cluster:0 ~ii:4 ~target_ii:4 ~weights) in
  (* Direct assignment to 2 fails (no arc 0 -> 2)... *)
  (match State.try_assign st ~node:1 ~cluster:2 ~ii:4 ~target_ii:4 ~weights with
  | Ok _ -> Alcotest.fail "should need routing"
  | Error _ -> ());
  (* ...but the Route Allocator detours through 1. *)
  match Router.assign_with_routing st ~node:1 ~cluster:2 ~ii:4 ~target_ii:4 ~weights ~max_hops:3 with
  | Error e -> Alcotest.fail e
  | Ok st' ->
      let flow = Copy_flow.freeze (State.flow st') in
      Alcotest.(check (list int)) "hop 0->1" [ 0 ]
        (Copy_flow.Frozen.copies flow ~src:0 ~dst:1);
      Alcotest.(check (list int)) "hop 1->2" [ 0 ]
        (Copy_flow.Frozen.copies flow ~src:1 ~dst:2);
      Alcotest.(check (list (pair int int))) "forward recorded" [ (0, 1) ]
        (State.forwards st')

let test_router_hop_limit () =
  let b = Ddg.Builder.create ~name:"pair" () in
  let p0 = Ddg.Builder.add_instr b Opcode.Add in
  let c0 = Ddg.Builder.add_instr b Opcode.Add in
  Ddg.Builder.add_dep b ~src:p0 ~dst:c0;
  let ddg = Ddg.Builder.freeze b in
  let pg =
    Pattern_graph.of_adjacency ~name:"chain4" ~capacities:(Array.make 4 (r 2 2))
      ~max_in:1 ~potential:[ (0, 1); (1, 2); (2, 3) ]
  in
  let problem = Problem.of_ddg ~name:"p" ~ddg ~pg () in
  let st = State.create problem in
  let st = Result.get_ok (State.try_assign st ~node:0 ~cluster:0 ~ii:8 ~target_ii:8 ~weights) in
  (match Router.assign_with_routing st ~node:1 ~cluster:3 ~ii:8 ~target_ii:8 ~weights ~max_hops:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "2 hops cannot span 3 arcs");
  match Router.assign_with_routing st ~node:1 ~cluster:3 ~ii:8 ~target_ii:8 ~weights ~max_hops:3 with
  | Error e -> Alcotest.fail e
  | Ok st' -> Alcotest.(check int) "two forwards" 2 (List.length (State.forwards st'))

(* --- see -------------------------------------------------------------- *)

let test_see_solves_diamond () =
  let p = Problem.of_ddg ~name:"p" ~ddg:(diamond ()) ~pg:(complete4 ()) () in
  match See.solve p ~ii:2 with
  | Error f -> Alcotest.fail (See.message f ~ii:2)
  | Ok o ->
      Alcotest.(check bool) "complete" true (State.is_complete o.See.state);
      Alcotest.(check bool) "explored some" true (o.See.explored > 0)

let test_see_respects_capacity () =
  (* 8 ALU ops on 4 single-ALU clusters at ii 2 fill the machine. *)
  let b = Ddg.Builder.create ~name:"eight" () in
  for _ = 1 to 8 do
    ignore (Ddg.Builder.add_instr b Opcode.Add)
  done;
  let ddg = Ddg.Builder.freeze b in
  let p = Problem.of_ddg ~name:"p" ~ddg ~pg:(complete4 ~cap:(r 1 1) ()) () in
  (match See.solve p ~ii:1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "8 ops on 4 slots at ii 1");
  match See.solve p ~ii:2 with
  | Error f -> Alcotest.fail (See.message f ~ii:2)
  | Ok o ->
      (* Perfect balance: every cluster holds exactly 2. *)
      List.iter
        (fun (nd : Pattern_graph.node) ->
          Alcotest.(check int) "balanced" 2
            (List.length (State.cluster_nodes o.See.state nd.id)))
        (Pattern_graph.regular_nodes (Problem.pg p))

let test_see_pinned_ports_preassigned () =
  let ddg = diamond () in
  let pg =
    Pattern_graph.with_ports (complete4 ())
      ~inputs:[ (0, [ 0 ]); (1, [ 2 ]) ]
      ~outputs:[ (0, [ 3 ]) ]
  in
  let p = Result.get_ok (Problem.of_working_set ~name:"p" ~ddg ~ws:[ 1; 3 ] ~pg ()) in
  match See.solve p ~ii:4 with
  | Error f -> Alcotest.fail (See.message f ~ii:4)
  | Ok o ->
      (* The out port must be fed with value 3 by d's cluster. *)
      let flow = Copy_flow.freeze (State.flow o.See.state) in
      let port = (List.hd (Pattern_graph.out_ports pg)).Pattern_graph.id in
      (match Copy_flow.Frozen.real_in_neighbors flow port with
      | [ src ] ->
          Alcotest.(check (list int)) "value delivered" [ 3 ]
            (Copy_flow.Frozen.copies flow ~src ~dst:port)
      | _ -> Alcotest.fail "out port must have one feeder")

let test_see_forced_colocation_fig10 () =
  (* Two values k, h owed to ONE output wire: their producers must land
     on the same cluster (Fig. 10 (c)). *)
  let b = Ddg.Builder.create ~name:"kh" () in
  let k = Ddg.Builder.add_instr b ~name:"k" Opcode.Add in
  let h = Ddg.Builder.add_instr b ~name:"h" Opcode.Add in
  ignore k;
  ignore h;
  let ddg = Ddg.Builder.freeze b in
  let pg =
    Pattern_graph.with_ports (complete4 ()) ~inputs:[] ~outputs:[ (0, [ 0; 1 ]) ]
  in
  let p = Result.get_ok (Problem.of_working_set ~name:"p" ~ddg ~ws:[ 0; 1 ] ~pg ()) in
  match See.solve p ~ii:4 with
  | Error f -> Alcotest.fail (See.message f ~ii:4)
  | Ok o ->
      Alcotest.(check (option int)) "same cluster"
        (State.placement o.See.state 0)
        (State.placement o.See.state 1)

let test_see_alternatives_sorted () =
  let p = Problem.of_ddg ~name:"p" ~ddg:(diamond ()) ~pg:(complete4 ()) () in
  let config = { Config.default with beam_width = 6 } in
  match See.solve ~config p ~ii:4 with
  | Error f -> Alcotest.fail (See.message f ~ii:4)
  | Ok o ->
      let costs = List.map State.cost (o.See.state :: o.See.alternatives) in
      Alcotest.(check bool) "sorted" true (List.sort compare costs = costs)

let test_see_priority_modes () =
  let p = Problem.of_ddg ~name:"p" ~ddg:(Hca_kernels.Fir2dim.ddg ()) ~pg:(complete4 ~cap:(r 16 16) ~max_in:8 ()) () in
  List.iter
    (fun priority ->
      let config = { Config.default with priority } in
      match See.solve ~config p ~ii:4 with
      | Ok o -> Alcotest.(check bool) "complete" true (State.is_complete o.See.state)
      | Error f ->
          Alcotest.failf "priority mode failed: %s" (See.message f ~ii:4))
    [ Config.Affinity; Config.Criticality; Config.Source_order ]

(* --- regions ----------------------------------------------------------- *)

let test_regions_cover_free_nodes () =
  let p = Problem.of_ddg ~name:"p" ~ddg:(Hca_kernels.Idcthor.ddg ()) ~pg:(complete4 ~cap:(r 16 16) ~max_in:8 ()) () in
  let region, _ = Regions.partition p ~capacity:32 in
  Array.iter
    (fun (nd : Problem.node) ->
      if nd.Problem.pinned = None then
        Alcotest.(check bool) "region assigned" true (region.(nd.Problem.id) >= 0))
    (Problem.nodes p)

let test_regions_capacity () =
  let p = Problem.of_ddg ~name:"p" ~ddg:(Hca_kernels.H264deblock.ddg ()) ~pg:(complete4 ~cap:(r 16 16) ~max_in:8 ()) () in
  let capacity = 20 in
  let region, _ = Regions.partition p ~capacity in
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun r ->
      if r >= 0 then
        Hashtbl.replace counts r (1 + Option.value ~default:0 (Hashtbl.find_opt counts r)))
    region;
  Hashtbl.iter
    (fun _ c -> Alcotest.(check bool) "capacity respected" true (c <= capacity))
    counts

let test_regions_separate_columns () =
  (* Two disjoint chains must never share a region. *)
  let b = Ddg.Builder.create ~name:"two" () in
  let mk () =
    let a = Ddg.Builder.add_instr b Opcode.Add in
    let c = Ddg.Builder.add_instr b Opcode.Add in
    Ddg.Builder.add_dep b ~src:a ~dst:c;
    (a, c)
  in
  let a0, c0 = mk () in
  let a1, c1 = mk () in
  let ddg = Ddg.Builder.freeze b in
  let p = Problem.of_ddg ~name:"p" ~ddg ~pg:(complete4 ()) () in
  let region, _ = Regions.partition p ~capacity:8 in
  Alcotest.(check int) "chain 0 together" region.(a0) region.(c0);
  Alcotest.(check int) "chain 1 together" region.(a1) region.(c1);
  Alcotest.(check bool) "chains apart" true (region.(a0) <> region.(a1))

(* The gain-counter growth must return the reference twin's regions
   exactly: the region arrays order the SEE and colour the Mapper's
   wires, so any drift (a flipped tie-break, a stale gain) changes
   placements.  The capacities it reports the partition holding at must
   hold too: from the reported one up when every region stopped on its
   gain, else some region is full. *)
let partition_matches_ref p ~capacity =
  let region, stable_from = Regions.partition p ~capacity in
  region = Regions_ref.partition p ~capacity
  &&
  match stable_from with
  | Some c ->
      c <= capacity
      && List.for_all
           (fun capacity -> fst (Regions.partition p ~capacity) = region)
           [ c; capacity + 7 ]
  | None ->
      let size = Array.make (Array.length region) 0 in
      Array.iter (fun r -> if r >= 0 then size.(r) <- size.(r) + 1) region;
      Array.mem capacity size

(* Child problems of a solved hierarchy carry in- and out-ports, so the
   port affinities get exercised too. *)
let prop_partition_matches_ref =
  QCheck.Test.make ~name:"Regions.partition = reference on hierarchy problems"
    ~count:40 (QCheck.int_range 0 10_000)
    (fun seed ->
      let ddg = Hca_gen.Gen.ddg ~seed () in
      let r = Report.run Dspfabric.reference ddg in
      QCheck.assume (r.Report.result <> None);
      let res = Option.get r.Report.result in
      List.for_all
        (fun sub ->
          let p = Record_problem.of_subresult res sub in
          let n = Problem.size p in
          List.for_all
            (fun capacity -> partition_matches_ref p ~capacity)
            [ 1; 2; 7; n; n + 1 ])
        (Hierarchy.subresults res))

let prop_partition_ddg_matches_ref =
  QCheck.Test.make ~name:"Regions.partition_ddg = reference on member subsets"
    ~count:200
    QCheck.(triple (int_range 0 10_000) (int_range 0 10_000) (int_range 1 30))
    (fun (seed, pick, capacity) ->
      let ddg = Hca_gen.Gen.ddg ~seed () in
      let n = Ddg.size ddg in
      let rng = Random.State.make [| pick |] in
      let members =
        List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id)
      in
      let got = Regions.partition_ddg ddg ~members ~capacity in
      let want = Regions_ref.partition_ddg ddg ~members ~capacity in
      List.for_all (fun g -> got g = want g) (List.init (n + 2) (fun g -> g - 1)))

let test_regions_match_ref_kernels () =
  List.iter
    (fun (name, build) ->
      let p =
        Problem.of_ddg ~name ~ddg:(build ())
          ~pg:(complete4 ~cap:(r 16 16) ~max_in:8 ())
          ()
      in
      List.iter
        (fun capacity ->
          Alcotest.(check bool)
            (Printf.sprintf "%s at capacity %d" name capacity)
            true
            (partition_matches_ref p ~capacity))
        [ 4; 16; 64; 256 ])
    Hca_kernels.Registry.extended

(* --- mapper / ili ------------------------------------------------------- *)

let solved_diamond () =
  let p = Problem.of_ddg ~name:"p" ~ddg:(diamond ()) ~pg:(complete4 ()) () in
  let o = Result.get_ok (See.solve p ~ii:2) in
  (p, o)

let test_mapper_basic () =
  let p, o = solved_diamond () in
  match Mapper.map ~problem:p ~state:o.See.state ~in_capacity:2 ~out_capacity:2 () with
  | Error e -> Alcotest.fail e
  | Ok res ->
      Alcotest.(check bool) "model valid" true
        (Machine_model.validate res.Mapper.model = Ok ());
      Alcotest.(check int) "one ILI per child" 4 (Array.length res.Mapper.child_ilis)

let test_mapper_broadcast_merging () =
  (* One producer, broadcast to two clusters: a single wire suffices. *)
  let b = Ddg.Builder.create ~name:"bcast" () in
  let src = Ddg.Builder.add_instr b Opcode.Add in
  let c1 = Ddg.Builder.add_instr b Opcode.Add in
  let c2 = Ddg.Builder.add_instr b Opcode.Add in
  Ddg.Builder.add_dep b ~src ~dst:c1;
  Ddg.Builder.add_dep b ~src ~dst:c2;
  let ddg = Ddg.Builder.freeze b in
  let p = Problem.of_ddg ~name:"p" ~ddg ~pg:(complete4 ()) () in
  let st = State.create p in
  let st = Result.get_ok (State.try_assign st ~node:0 ~cluster:0 ~ii:2 ~target_ii:2 ~weights) in
  let st = Result.get_ok (State.try_assign st ~node:1 ~cluster:1 ~ii:2 ~target_ii:2 ~weights) in
  let st = Result.get_ok (State.try_assign st ~node:2 ~cluster:2 ~ii:2 ~target_ii:2 ~weights) in
  match Mapper.map ~problem:p ~state:st ~in_capacity:2 ~out_capacity:2 () with
  | Error e -> Alcotest.fail e
  | Ok res ->
      Alcotest.(check int) "one wire broadcast" 1
        (List.length (Machine_model.used_out_wires res.Mapper.model 0));
      let w = List.hd (Machine_model.used_out_wires res.Mapper.model 0) in
      Alcotest.(check (list int)) "both sinks" [ 1; 2 ]
        (List.sort compare (Machine_model.wire_sinks res.Mapper.model w))

let test_mapper_ili_payloads () =
  let p, o = solved_diamond () in
  match Mapper.map ~problem:p ~state:o.See.state ~in_capacity:2 ~out_capacity:2 () with
  | Error e -> Alcotest.fail e
  | Ok res ->
      (* Every copy in the flow shows up in some child ILI input. *)
      let all_in =
        Array.to_list res.Mapper.child_ilis
        |> List.concat_map (fun ili -> Ili.input_values ili)
      in
      List.iter
        (fun (_, _, values) ->
          List.iter
            (fun v ->
              Alcotest.(check bool) "value delivered" true (List.mem v all_in))
            values)
        (Copy_flow.Frozen.arcs res.Mapper.flow)

let test_mapper_wire_cap () =
  (* Three values from cluster 0 to cluster 1 with wire_cap 1: three
     distinct wires. *)
  let b = Ddg.Builder.create ~name:"three" () in
  let srcs = List.init 3 (fun _ -> Ddg.Builder.add_instr b Opcode.Add) in
  let dst = Ddg.Builder.add_instr b Opcode.Mov in
  List.iter (fun s -> Ddg.Builder.add_dep b ~src:s ~dst) srcs;
  let ddg = Ddg.Builder.freeze b in
  let pg = Pattern_graph.complete ~name:"t" ~capacities:(Array.make 2 (r 4 4)) ~max_in:4 in
  let p = Problem.of_ddg ~name:"p" ~ddg ~pg () in
  let st = State.create p in
  let st = List.fold_left (fun st s -> Result.get_ok (State.try_assign st ~node:s ~cluster:0 ~ii:4 ~target_ii:4 ~weights)) st srcs in
  let st = Result.get_ok (State.try_assign st ~node:dst ~cluster:1 ~ii:4 ~target_ii:4 ~weights) in
  match Mapper.map ~wire_cap:1 ~problem:p ~state:st ~in_capacity:4 ~out_capacity:4 () with
  | Error e -> Alcotest.fail e
  | Ok res ->
      Alcotest.(check int) "three wires" 3
        (List.length (Machine_model.used_out_wires res.Mapper.model 0));
      Alcotest.(check int) "load 1" 1 res.Mapper.max_wire_load

let test_ili_accessors () =
  let ili = { Ili.inputs = [ (0, [ 1; 2 ]); (1, [ 2; 3 ]) ]; outputs = [ (0, [ 9 ]) ] } in
  Alcotest.(check (list int)) "inputs dedup" [ 1; 2; 3 ] (Ili.input_values ili);
  Alcotest.(check (list int)) "outputs" [ 9 ] (Ili.output_values ili);
  Alcotest.(check bool) "not empty" false (Ili.is_empty ili);
  Alcotest.(check bool) "empty" true (Ili.is_empty Ili.empty)

(* --- hierarchy / coherency / metrics ------------------------------------ *)

let small_fabric = Dspfabric.make ~fanouts:[| 2; 2 |] ~n:4 ~m:4 ~k:4 ()

let test_hierarchy_small_fabric () =
  (* 4-CN fabric, diamond kernel. *)
  match Hierarchy.solve small_fabric (diamond ()) ~ii:4 with
  | Error e -> Alcotest.fail e
  | Ok res ->
      Array.iter
        (fun cn -> Alcotest.(check bool) "cn in range" true (cn >= 0 && cn < 4))
        res.Hierarchy.cn_of_instr;
      Alcotest.(check bool) "legal" true (Coherency.is_legal res)

let test_hierarchy_full_kernels_legal () =
  List.iter
    (fun (name, f) ->
      let ddg = f () in
      let report = Report.run Dspfabric.reference ddg in
      Alcotest.(check bool) (name ^ " legal") true report.Report.legal;
      match report.Report.final_mii with
      | None -> Alcotest.failf "%s: no final MII" name
      | Some final ->
          Alcotest.(check bool)
            (name ^ " final >= ini")
            true
            (final >= report.Report.ini_mii))
    Hca_kernels.Registry.all

let test_coherency_catches_corruption () =
  match Hierarchy.solve small_fabric (diamond ()) ~ii:4 with
  | Error e -> Alcotest.fail e
  | Ok res ->
      Alcotest.(check bool) "initially legal" true (Coherency.is_legal res);
      (* Teleport an instruction to a CN no value was wired to: the
         checker must notice (unless it already sits there). *)
      let original = res.Hierarchy.cn_of_instr.(3) in
      res.Hierarchy.cn_of_instr.(3) <- (original + 1) mod 4;
      Alcotest.(check bool) "corruption caught" false (Coherency.is_legal res);
      res.Hierarchy.cn_of_instr.(3) <- original

let test_metrics_sanity () =
  match Hierarchy.solve small_fabric (diamond ()) ~ii:4 with
  | Error e -> Alcotest.fail e
  | Ok res ->
      let m = Metrics.of_result res in
      Alcotest.(check int) "rec" 1 m.Metrics.rec_mii;
      Alcotest.(check bool) "final >= ini" true (m.Metrics.final_mii >= m.Metrics.ini_mii);
      Alcotest.(check bool) "final >= cls" true (m.Metrics.final_mii >= m.Metrics.max_cls_mii)

let test_hierarchy_narrow_fabric_fails_or_degrades () =
  (* N = M = K = 1 cannot carry idcthor's traffic at any II we allow:
     either it fails or legality costs a much larger final MII. *)
  let narrow = Dspfabric.make ~n:1 ~m:1 ~k:1 () in
  let report = Report.run narrow (Hca_kernels.Idcthor.ddg ()) in
  let wide = Report.run Dspfabric.reference (Hca_kernels.Idcthor.ddg ()) in
  match (report.Report.final_mii, wide.Report.final_mii) with
  | None, _ -> () (* failing outright is acceptable degradation *)
  | Some narrow_mii, Some wide_mii ->
      Alcotest.(check bool) "degrades" true (narrow_mii >= wide_mii)
  | Some _, None -> Alcotest.fail "reference machine must clusterise idcthor"

(* --- coherency negative cases --------------------------------------- *)


let test_coherency_lists_specific_errors () =
  match Hierarchy.solve small_fabric (diamond ()) ~ii:4 with
  | Error e -> Alcotest.fail e
  | Ok res -> (
      (* Invalidate the placement out of machine range. *)
      let original = res.Hierarchy.cn_of_instr.(0) in
      res.Hierarchy.cn_of_instr.(0) <- 99;
      (match Coherency.check res with
      | Ok () -> Alcotest.fail "out-of-range CN accepted"
      | Error msgs ->
          Alcotest.(check bool) "explains the violation" true
            (List.exists
               (fun m ->
                 let re = "%0" in
                 let rec search i =
                   i + String.length re <= String.length m
                   && (String.sub m i (String.length re) = re || search (i + 1))
                 in
                 search 0)
               msgs));
      res.Hierarchy.cn_of_instr.(0) <- original;
      Alcotest.(check bool) "restored" true (Coherency.is_legal res))

(* --- negative paths: mutated known-good configurations ------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let solve_spread () =
  (* ii=1 forces the diamond across all four CNs, so every hierarchy
     level carries real traffic worth corrupting. *)
  match Hierarchy.solve small_fabric (diamond ()) ~ii:1 with
  | Error e -> Alcotest.fail e
  | Ok res ->
      Alcotest.(check bool) "initially legal" true (Coherency.is_legal res);
      res

(* [res] with the record at [path] replaced by [f] of it.  Records are
   immutable, so the tree is rebuilt along the path; the original (and
   any memo entry sharing its subtrees) stays as it was, which each
   test checks after its mutation. *)
let with_sub res path f =
  let rec go (sub : Hierarchy.subresult) = function
    | [] -> f sub
    | i :: rest ->
        let children = Array.copy sub.Hierarchy.children in
        children.(i) <- Option.map (fun c -> go c rest) children.(i);
        { sub with Hierarchy.children }
  in
  { res with Hierarchy.root = go res.Hierarchy.root path }

(* A clone of a record's wire model, mutated by [f]. *)
let with_model res path f =
  with_sub res path (fun sub ->
      let model = Machine_model.clone sub.Hierarchy.model in
      f model;
      { sub with Hierarchy.model })

let expect_rejection ~original res label substrings =
  (match Coherency.check res with
  | Ok () -> Alcotest.failf "%s: mutation accepted" label
  | Error msgs ->
      let all = String.concat " | " msgs in
      Alcotest.(check bool)
        (label ^ ": diagnostic names the violation")
        true
        (List.exists (contains all) substrings));
  Alcotest.(check bool) (label ^ ": original untouched") true
    (Coherency.is_legal original)

let test_coherency_rejects_dropped_copy () =
  let res = solve_spread () in
  let mutated =
    with_sub res [] (fun sub ->
        match Copy_flow.Frozen.arcs sub.Hierarchy.flow with
        | (src, dst, v :: _) :: _ ->
            {
              sub with
              Hierarchy.flow =
                Copy_flow.Frozen.remove_copy sub.Hierarchy.flow ~src ~dst v;
            }
        | _ -> Alcotest.fail "no copy to drop at the root")
  in
  expect_rejection ~original:res mutated "dropped copy"
    [ "no path between the two cluster sets" ]

let test_coherency_rejects_dropped_wire_value () =
  let res = solve_spread () in
  let mutated =
    with_model res [] (fun model ->
        let exception Done in
        try
          for nd = 0 to Machine_model.nodes model - 1 do
            List.iter
              (fun w ->
                match Machine_model.wire_values model w with
                | v :: _ ->
                    Machine_model.remove_value model ~wire:w v;
                    raise Done
                | [] -> ())
              (Machine_model.used_out_wires model nd)
          done;
          Alcotest.fail "no wire value to drop at the root"
        with Done -> ())
  in
  expect_rejection ~original:res mutated "dropped wire value"
    [ "no path between the two cluster sets" ]

let test_coherency_rejects_overfilled_mux () =
  (* A 4-children root offers enough foreign wires to overfill one
     MUX with distinct connections (duplicates are a separate error). *)
  let wide = Dspfabric.make ~fanouts:[| 4; 2 |] ~n:4 ~m:4 ~k:4 () in
  match Hierarchy.solve wide (diamond ()) ~ii:1 with
  | Error e -> Alcotest.fail e
  | Ok res ->
      Alcotest.(check bool) "initially legal" true (Coherency.is_legal res);
      let added = ref 0 and cap = ref 0 in
      let mutated =
        with_model res [] (fun model ->
            let nodes = Machine_model.nodes model
            and out_cap = Machine_model.out_capacity model in
            cap := Machine_model.in_capacity model;
            let dst = nodes - 1 in
            for w = 0 to (nodes * out_cap) - 1 do
              if
                !added <= !cap && w / out_cap <> dst
                && not (List.mem dst (Machine_model.wire_sinks model w))
              then begin
                Machine_model.inject_sink model ~wire:w ~dst;
                incr added
              end
            done)
      in
      Alcotest.(check bool) "injected past capacity" true (!added > !cap);
      expect_rejection ~original:res mutated "overfilled mux"
        [ "exceed capacity" ]

let test_coherency_rejects_dropped_external_in () =
  let res = solve_spread () in
  let reservation (sub : Hierarchy.subresult) =
    let model = sub.Hierarchy.model in
    List.find_map
      (fun nd ->
        match Machine_model.external_ins model nd with
        | label :: _ -> Some (sub.Hierarchy.path, nd, label)
        | [] -> None)
      (List.init (Machine_model.nodes model) Fun.id)
  in
  match List.find_map reservation (Hierarchy.subresults res) with
  | None -> Alcotest.fail "no external input reservation to drop"
  | Some (path, dst, label) ->
      let mutated =
        with_model res path (fun model ->
            Machine_model.drop_external_in model ~dst ~label)
      in
      expect_rejection ~original:res mutated "dropped external input"
        [
          "value does not reach the consumer's cluster set";
          "value enters on no input port";
        ]

let test_coherency_rejects_cross_wired_clusters () =
  let res = solve_spread () in
  (* Swap two instructions across the level-0 boundary: every routed
     copy now serves the wrong producer. *)
  let cn_of_instr = Array.copy res.Hierarchy.cn_of_instr in
  let a = cn_of_instr.(1) and b = cn_of_instr.(2) in
  Alcotest.(check bool) "placed on distinct CNs" true (a <> b);
  cn_of_instr.(1) <- b;
  cn_of_instr.(2) <- a;
  expect_rejection ~original:res { res with Hierarchy.cn_of_instr }
    "cross-wired clusters"
    [
      "no path between the two cluster sets";
      "value owed upwards on no output port";
      "value does not reach its output port";
      "value does not reach the consumer's cluster set";
    ]

let test_hierarchy_leaf_of_path () =
  match Hierarchy.solve small_fabric (diamond ()) ~ii:4 with
  | Error e -> Alcotest.fail e
  | Ok res ->
      Alcotest.(check bool) "root" true (Hierarchy.leaf_of_path res [] <> None);
      Alcotest.(check bool) "bad path" true (Hierarchy.leaf_of_path res [ 9 ] = None)

(* A kernel's name is only a label: two different 12-instruction
   kernels both called "k" share the root working set and the II
   window, so a memo keyed on the name would serve the second one the
   first one's subtrees. *)
let test_memo_keys_on_content () =
  let knobs =
    { Hca_gen.Gen.default_ddg_knobs with min_size = 12; max_size = 12 }
  in
  let cache = Hierarchy.create_cache () in
  List.iter
    (fun seed ->
      let ddg = Ddg.with_name (Hca_gen.Gen.ddg ~knobs ~seed ()) "k" in
      let shared = Report.run ~cache Dspfabric.reference ddg in
      let alone = Report.run Dspfabric.reference ddg in
      Alcotest.(check string)
        (Printf.sprintf "seed %d through the shared cache" seed)
        (Report.invariant_string alone)
        (Report.invariant_string shared))
    [ 22911; 66550 ]

let test_hierarchy_counts_consistent () =
  match Hierarchy.solve small_fabric (diamond ()) ~ii:4 with
  | Error e -> Alcotest.fail e
  | Ok res ->
      let total =
        List.init 4 (fun cn -> Hierarchy.cn_count res cn)
        |> List.fold_left ( + ) 0
      in
      (* Every instruction plus every forward is on some CN. *)
      Alcotest.(check int) "all placed" (4 + List.length res.Hierarchy.forwards) total

(* --- the report codec --------------------------------------------------- *)

module Json = Hca_util.Json

(* A report as a row or a reply carries it: keyed by its kernel, and
   through the bytes. *)
let codec_line (r : Report.t) =
  Json.Obj (("kernel", Json.Str r.Report.kernel) :: Report.to_json r)

let decode line = Result.bind (Json.parse (Json.to_string line)) Report.of_json

let round_trip (r : Report.t) =
  match decode (codec_line r) with
  | Error e -> Error e
  | Ok d ->
      if
        d.Report.kernel = r.Report.kernel
        && Report.to_json d = Report.to_json r
        && Report.invariant_string d = Report.invariant_string r
      then Ok ()
      else Error (Json.to_string (codec_line d))

(* Every CN {1 ALU, 0 AG}: a kernel with an AG op (every generated one
   holds a Store) is unmappable here, an error row without a probe. *)
let no_ag =
  lazy
    (match
       Machine_io.of_string
         "machine noag\nlevel 2 4\nlevel 2 4\ncn_in_wires 2\ndma_ports 4\n\
          cn 0-3 1 0\n"
     with
    | Ok m -> m
    | Error e -> failwith e)

let prop_codec_round_trip =
  QCheck.Test.make ~count:30
    ~name:"of_json gives back the report to_json wrote"
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let ddg = Hca_gen.Gen.ddg ~seed () in
      List.for_all
        (fun machine ->
          match round_trip (Report.run machine ddg) with
          | Ok () -> true
          | Error e -> QCheck.Test.fail_report e)
        [
          Dspfabric.reference;
          Hca_gen.Gen.desc ~hetero:0.3 ~seed ();
          Lazy.force no_ag;
        ])

(* The rows the property meets are legal or unmappable; these three
   carry the other kinds of error text: a failed climb (idcthor needs
   more wiring than [g4x2-c4-d8] has, as in the CI DSE grid), an
   unmappable Table 1 kernel, and a deadline that passed before the
   first probe. *)
let error_rows () =
  let g4x2 = Dspfabric.make ~fanouts:[| 4; 2 |] ~n:4 ~m:4 ~k:4 ~dma_ports:8 () in
  [
    Report.run g4x2 (Hca_kernels.Idcthor.ddg ());
    Report.run (Lazy.force no_ag) (Hca_kernels.Fir2dim.ddg ());
    Report.run ~deadline_s:(-1.) Dspfabric.reference (Hca_kernels.Fir2dim.ddg ());
  ]

let test_codec_error_rows () =
  List.iter
    (fun (r : Report.t) ->
      Alcotest.(check bool) "an illegal row with an error" true
        ((not r.Report.legal) && r.Report.error <> None);
      match round_trip r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" r.Report.kernel e)
    (error_rows ())

(* Each field in turn dropped or given the wrong JSON type is an error
   that names it.  Dropping [error] is caught by the invariant, which
   spells the error text. *)
let test_codec_rejects () =
  let rejects what expected_field fields =
    match decode (Json.Obj fields) with
    | Ok _ -> Alcotest.failf "%s: decoded" what
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %S" what e expected_field)
          true
          (contains e (Printf.sprintf "%S" expected_field))
  in
  let mistyped = function
    | Json.Str _ -> Json.Num 1.
    | Json.Bool _ -> Json.Num 0.
    | _ -> Json.Str "1"
  in
  let legal = Report.run Dspfabric.reference (Hca_gen.Gen.ddg ~seed:7 ()) in
  List.iter
    (fun (r : Report.t) ->
      let fields = match codec_line r with Json.Obj l -> l | _ -> assert false in
      List.iter
        (fun (k, v) ->
          let others = List.remove_assoc k fields in
          rejects ("without " ^ k) (if k = "error" then "invariant" else k) others;
          rejects ("mistyped " ^ k) k ((k, mistyped v) :: others))
        fields;
      let changed k v = (k, v) :: List.remove_assoc k fields in
      rejects "changed invariant" "invariant"
        (changed "invariant" (Json.Str (Report.invariant_string r ^ " ")));
      rejects "changed copies" "invariant"
        (changed "copies" (Json.Num (float_of_int (r.Report.copies + 1)))))
    (legal :: error_rows ())

let () =
  Alcotest.run "core"
    [
      ( "problem",
        [
          Alcotest.test_case "of_ddg" `Quick test_problem_of_ddg;
          Alcotest.test_case "rejects ports" `Quick test_problem_of_ddg_rejects_ports;
          Alcotest.test_case "working set" `Quick test_problem_working_set_ports;
          Alcotest.test_case "missing input" `Quick test_problem_missing_input_fails;
          Alcotest.test_case "pass-through" `Quick test_problem_pass_through_forward;
          Alcotest.test_case "orphan output" `Quick test_problem_orphan_output_fails;
          Alcotest.test_case "height/depth" `Quick test_problem_height_depth;
          Alcotest.test_case "walks on extended roots" `Quick
            test_problem_walks_extended_roots;
          QCheck_alcotest.to_alcotest prop_problem_walks_subresults;
        ] );
      ( "state",
        [
          Alcotest.test_case "assign" `Quick test_state_assign_basic;
          Alcotest.test_case "same cluster" `Quick test_state_same_cluster_no_copy;
          Alcotest.test_case "cross cluster" `Quick test_state_cross_cluster_copy;
          Alcotest.test_case "resources" `Quick test_state_resource_rejection;
          Alcotest.test_case "communication" `Quick test_state_comm_rejection;
          Alcotest.test_case "force assign" `Quick test_state_probe_force_blocked;
          Alcotest.test_case "penalty" `Quick test_state_penalty;
          Alcotest.test_case "summary" `Quick test_state_summary_pressure;
        ] );
      ( "router",
        [
          Alcotest.test_case "detour (Fig. 6)" `Quick test_router_detour;
          Alcotest.test_case "hop limit" `Quick test_router_hop_limit;
        ] );
      ( "see",
        [
          Alcotest.test_case "diamond" `Quick test_see_solves_diamond;
          Alcotest.test_case "capacity" `Quick test_see_respects_capacity;
          Alcotest.test_case "ports preassigned" `Quick test_see_pinned_ports_preassigned;
          Alcotest.test_case "co-location (Fig. 10)" `Quick test_see_forced_colocation_fig10;
          Alcotest.test_case "alternatives sorted" `Quick test_see_alternatives_sorted;
          Alcotest.test_case "priority modes" `Quick test_see_priority_modes;
        ] );
      ( "regions",
        [
          Alcotest.test_case "coverage" `Quick test_regions_cover_free_nodes;
          Alcotest.test_case "capacity" `Quick test_regions_capacity;
          Alcotest.test_case "separation" `Quick test_regions_separate_columns;
          Alcotest.test_case "registry kernels = reference" `Quick
            test_regions_match_ref_kernels;
          QCheck_alcotest.to_alcotest prop_partition_matches_ref;
          QCheck_alcotest.to_alcotest prop_partition_ddg_matches_ref;
        ] );
      ( "mapper",
        [
          Alcotest.test_case "basic" `Quick test_mapper_basic;
          Alcotest.test_case "broadcast merge (Fig. 9)" `Quick test_mapper_broadcast_merging;
          Alcotest.test_case "ILI payloads" `Quick test_mapper_ili_payloads;
          Alcotest.test_case "wire cap" `Quick test_mapper_wire_cap;
          Alcotest.test_case "ili accessors" `Quick test_ili_accessors;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "small fabric" `Quick test_hierarchy_small_fabric;
          Alcotest.test_case "all kernels legal" `Slow test_hierarchy_full_kernels_legal;
          Alcotest.test_case "coherency catches corruption" `Quick
            test_coherency_catches_corruption;
          Alcotest.test_case "metrics" `Quick test_metrics_sanity;
          Alcotest.test_case "narrow fabric degrades" `Slow
            test_hierarchy_narrow_fabric_fails_or_degrades;
          Alcotest.test_case "specific errors" `Quick
            test_coherency_lists_specific_errors;
          Alcotest.test_case "rejects dropped copy" `Quick
            test_coherency_rejects_dropped_copy;
          Alcotest.test_case "rejects dropped wire value" `Quick
            test_coherency_rejects_dropped_wire_value;
          Alcotest.test_case "rejects overfilled mux" `Quick
            test_coherency_rejects_overfilled_mux;
          Alcotest.test_case "rejects dropped external in" `Quick
            test_coherency_rejects_dropped_external_in;
          Alcotest.test_case "rejects cross-wired clusters" `Quick
            test_coherency_rejects_cross_wired_clusters;
          Alcotest.test_case "leaf_of_path" `Quick test_hierarchy_leaf_of_path;
          Alcotest.test_case "count consistency" `Quick
            test_hierarchy_counts_consistent;
          Alcotest.test_case "memo keys on content" `Quick
            test_memo_keys_on_content;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_codec_round_trip;
          Alcotest.test_case "error rows round-trip" `Quick
            test_codec_error_rows;
          Alcotest.test_case "bad fields are named" `Quick test_codec_rejects;
        ] );
    ]

