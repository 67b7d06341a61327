(* PR-10 suite: conformance of the generalized machine model against
   the legacy DSPFabric formulas, the [.machine] round-trip properties,
   determinism of the DSE driver, and the machine/cache aliasing
   regression.

   Everything here is seeded; a failure reproduces verbatim. *)

open Hca_machine
open Hca_core
open Hca_gen
module Prng = Hca_util.Prng

let r alus ags = { Resource.alus; ags }

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000)

(* ------------------------------------------------------------------ *)
(* Conformance: the legacy DSPFabric formulas                          *)
(* ------------------------------------------------------------------ *)

(* Before the generalization, Dspfabric computed its level views
   directly from (fanouts, n, m, k, cn_in_wires).  This replica is
   written against the old code's arithmetic — independently of
   Machine_desc — so the two implementations can actually disagree. *)
let legacy_view ~fanouts ~n ~m ~k ~cn_in_wires ~level =
  let depth = Array.length fanouts in
  let is_leaf = level = depth - 1 in
  let cap = if level = 0 then n else if is_leaf then k else m in
  let cns_per_child = ref 1 in
  for l = level + 1 to depth - 1 do
    cns_per_child := !cns_per_child * fanouts.(l)
  done;
  ( fanouts.(level),
    !cns_per_child,
    (if is_leaf then cn_in_wires else cap),
    (if is_leaf then 1 else cap),
    (if is_leaf then cap else max_int) )

let test_legacy_level_views () =
  let shapes =
    [ [| 4; 4; 4 |]; [| 2; 2 |]; [| 4; 2 |]; [| 2; 2; 2 |]; [| 4; 4 |] ]
  in
  List.iter
    (fun fanouts ->
      List.iter
        (fun (n, m, k) ->
          let f = Dspfabric.make ~fanouts ~n ~m ~k () in
          for level = 0 to Dspfabric.depth f - 1 do
            let v = Dspfabric.level_view f ~level in
            let children, cns_per_child, mux, out, max_in =
              legacy_view ~fanouts ~n ~m ~k ~cn_in_wires:2 ~level
            in
            let ctx = Printf.sprintf "level %d of %s" level (Dspfabric.name f) in
            Alcotest.(check int) (ctx ^ " children") children v.Dspfabric.children;
            Alcotest.(check int)
              (ctx ^ " cns_per_child") cns_per_child v.Dspfabric.cns_per_child;
            Alcotest.(check int) (ctx ^ " mux") mux v.Dspfabric.mux_capacity;
            Alcotest.(check int) (ctx ^ " out") out v.Dspfabric.out_capacity;
            Alcotest.(check int) (ctx ^ " max_in") max_in v.Dspfabric.max_in_ports;
            Alcotest.(check bool)
              (ctx ^ " is_leaf")
              (level = Array.length fanouts - 1)
              v.Dspfabric.is_leaf;
            (* Uniform machine: every child of every cluster owns
               cns_per_child default CNs — the legacy capacity_per_child. *)
            let caps = Dspfabric.child_capacities f ~path:[] in
            Alcotest.(check int)
              (ctx ^ " root caps len") fanouts.(0) (Array.length caps);
            Array.iter
              (fun c ->
                Alcotest.(check bool)
                  (ctx ^ " root caps uniform") true
                  (Resource.equal c
                     (Resource.scale
                        (Dspfabric.level_view f ~level:0).Dspfabric.cns_per_child
                        Resource.cn)))
              caps
          done)
        [ (8, 8, 8); (4, 2, 3) ])
    shapes

let test_reference_constants () =
  let f = Dspfabric.reference in
  Alcotest.(check int) "total CNs" 64 (Dspfabric.total_cns f);
  Alcotest.(check int) "depth" 3 (Dspfabric.depth f);
  Alcotest.(check string)
    "name" "dspfabric-64(N=8,M=8,K=8)" (Dspfabric.name f);
  (* 4 set clusters x 8 out wires + 16 x 8 + 64 CNs x 1. *)
  Alcotest.(check int) "wire cost" 224 (Machine_desc.wire_cost f);
  let res = Dspfabric.resources f in
  Alcotest.(check int) "alu slots" 64 res.Hca_ddg.Mii.alu_slots;
  Alcotest.(check int) "ag slots" 64 res.Hca_ddg.Mii.ag_slots;
  Alcotest.(check int) "issue slots" 64 res.Hca_ddg.Mii.issue_slots;
  Alcotest.(check int) "dma ports" 8 res.Hca_ddg.Mii.dma_ports;
  Alcotest.(check bool) "uniform" true (Machine_desc.is_uniform f)

let test_hetero_capacities () =
  let base =
    Machine_desc.make ~name:"het2x2"
      ~levels:[| { Machine_desc.fanout = 2; mux_cap = 4 }; { fanout = 2; mux_cap = 2 } |]
      ~cn_in_wires:2 ~dma_ports:4 ()
  in
  let m = Machine_desc.with_tables base [| r 2 1; r 1 0; r 1 2; r 1 1 |] in
  Alcotest.(check bool) "non-uniform" false (Machine_desc.is_uniform m);
  Alcotest.(check bool) "cn 1 table" true
    (Resource.equal (r 1 0) (Machine_desc.cn_table m 1));
  (* Root children sum their subtree's CN tables... *)
  let caps = Machine_desc.child_capacities m ~path:[] in
  Alcotest.(check bool) "cluster 0" true (Resource.equal (r 3 1) caps.(0));
  Alcotest.(check bool) "cluster 1" true (Resource.equal (r 2 3) caps.(1));
  (* ...and a leaf parent sees the individual CNs. *)
  let leaf = Machine_desc.child_capacities m ~path:[ 1 ] in
  Alcotest.(check bool) "cn 2" true (Resource.equal (r 1 2) leaf.(0));
  Alcotest.(check bool) "cn 3" true (Resource.equal (r 1 1) leaf.(1));
  (* Whole-machine pools: 5 ALUs, 4 AGs, issue = sum over CNs of
     [max alus ags] (the single-issue window widens with the FUs). *)
  let res = Machine_desc.resources m in
  Alcotest.(check int) "hetero alu slots" 5 res.Hca_ddg.Mii.alu_slots;
  Alcotest.(check int) "hetero ag slots" 4 res.Hca_ddg.Mii.ag_slots;
  Alcotest.(check int) "hetero issue slots" 6 res.Hca_ddg.Mii.issue_slots;
  (* An all-default explicit table normalises away: equal and same id. *)
  let spelled = Machine_desc.with_tables base [| Resource.cn; Resource.cn; Resource.cn; Resource.cn |] in
  Alcotest.(check bool) "normalised equal" true (Machine_desc.equal base spelled);
  Alcotest.(check string) "normalised id" (Machine_desc.id base) (Machine_desc.id spelled)

let test_cluster_mii_hetero () =
  (* An ALU-heavy cluster (2 ALUs, 1 AG) absorbs 4 ALU ops in 2 cycles. *)
  Alcotest.(check int) "alu-heavy" 2
    (Cost.cluster_mii ~demand:(r 4 0) ~capacity:(r 2 1) ~receives:0 ~max_in:8);
  (* A pure-compute cluster (no AG) can never host an AG op. *)
  Alcotest.(check int) "no ag capacity" max_int
    (Cost.cluster_mii ~demand:(r 0 1) ~capacity:(r 4 0) ~receives:0 ~max_in:8);
  (* Receives compete with ALU ops for the issue window and serialise
     on the incoming wires. *)
  Alcotest.(check int) "receive pressure" 2
    (Cost.cluster_mii ~demand:(r 2 0) ~capacity:(r 2 2) ~receives:2 ~max_in:1)

(* ------------------------------------------------------------------ *)
(* Conformance: bit-identical reports across construction routes       *)
(* ------------------------------------------------------------------ *)

let roundtrip m =
  match Machine_io.of_string (Machine_io.to_string m) with
  | Ok m' -> m'
  | Error e -> Alcotest.failf "round-trip of %s failed: %s" (Machine_desc.name m) e

let test_paper_kernel_routes () =
  (* Three spellings of the reference machine: the Dspfabric builder,
     a [.machine] round-trip, and an explicit Machine_desc.make.  All
     must be equal as values and produce bit-identical reports. *)
  let a = Dspfabric.reference in
  let b = roundtrip a in
  let c =
    Machine_desc.make ~name:"dspfabric-64(N=8,M=8,K=8)"
      ~levels:
        [|
          { Machine_desc.fanout = 4; mux_cap = 8 };
          { fanout = 4; mux_cap = 8 };
          { fanout = 4; mux_cap = 8 };
        |]
      ~cn_in_wires:2 ~dma_ports:8 ()
  in
  Alcotest.(check bool) "roundtrip equal" true (Machine_desc.equal a b);
  Alcotest.(check bool) "explicit equal" true (Machine_desc.equal a c);
  Alcotest.(check string) "ids agree" (Machine_desc.id a) (Machine_desc.id b);
  List.iter
    (fun (name, kernel) ->
      let g = kernel () in
      let via_fabric = Report.run a g in
      let via_io = Report.run b g in
      let via_desc = Report.run c g in
      Alcotest.(check string)
        (name ^ " io route")
        (Report.invariant_string via_fabric)
        (Report.invariant_string via_io);
      Alcotest.(check string)
        (name ^ " desc route")
        (Report.invariant_string via_fabric)
        (Report.invariant_string via_desc))
    Hca_kernels.Registry.all

let prop_fuzz_roundtrip_reports =
  QCheck.Test.make ~name:"fuzz instances report identically after round-trip"
    ~count:50 seed_arb (fun seed ->
      let inst = Gen.instance ~seed () in
      let rt = roundtrip inst.Gen.fabric in
      Machine_desc.equal inst.Gen.fabric rt
      && Report.invariant_string (Report.run inst.Gen.fabric inst.Gen.ddg)
         = Report.invariant_string (Report.run rt inst.Gen.ddg))

(* ------------------------------------------------------------------ *)
(* The [.machine] format                                               *)
(* ------------------------------------------------------------------ *)

(* Deterministic description sampler for the round-trip property:
   adversarial names (spaces, escapes, comment and record characters),
   degenerate shapes (one level, fan-out 1) and heterogeneous tables
   are all drawn. *)
let desc_of_seed seed =
  let rng = Prng.create (seed + 0x6d61) in
  let depth = 1 + Prng.int rng 3 in
  let levels =
    Array.init depth (fun _ ->
        { Machine_desc.fanout = 1 + Prng.int rng 3; mux_cap = 1 + Prng.int rng 8 })
  in
  let pool = [| 'a'; 'b'; 'z'; ' '; '#'; '\\'; ';'; '['; '-'; '\t'; '\n' |] in
  let name =
    String.init (Prng.int rng 12) (fun _ ->
        pool.(Prng.int rng (Array.length pool)))
  in
  let base =
    Machine_desc.make ~name ~levels
      ~cn_in_wires:(1 + Prng.int rng 4)
      ~dma_ports:(1 + Prng.int rng 8)
      ()
  in
  if Prng.bool rng then base
  else
    Machine_desc.with_tables base
      (Array.init (Machine_desc.total_cns base) (fun _ ->
           match Prng.int rng 4 with
           | 0 -> r 2 1
           | 1 -> r 1 0
           | 2 -> r 1 2
           | _ -> Resource.cn))

let prop_machine_roundtrip =
  QCheck.Test.make ~name:".machine round-trips exactly (parse o print = id)"
    ~count:300 seed_arb (fun seed ->
      let m = desc_of_seed seed in
      let m' = roundtrip m in
      Machine_desc.equal m m'
      && Machine_desc.id m = Machine_desc.id m'
      && Machine_io.to_string m = Machine_io.to_string m')

let test_degenerate_roundtrip () =
  let single =
    Machine_desc.make ~name:"" ~levels:[| { Machine_desc.fanout = 1; mux_cap = 1 } |]
      ~cn_in_wires:1 ~dma_ports:1 ()
  in
  Alcotest.(check bool) "1-level, 1-CN, empty name" true
    (Machine_desc.equal single (roundtrip single));
  Alcotest.(check int) "single CN" 1 (Machine_desc.total_cns single);
  Alcotest.(check int) "single wire" 1 (Machine_desc.wire_cost single);
  let weird =
    Machine_desc.make ~name:"a b\\c#d\te\nf"
      ~levels:[| { Machine_desc.fanout = 2; mux_cap = 3 }; { fanout = 1; mux_cap = 2 } |]
      ~cn_in_wires:2 ~dma_ports:3 ()
  in
  Alcotest.(check bool) "escaped name survives" true
    (Machine_desc.equal weird (roundtrip weird));
  Alcotest.(check string) "name intact" "a b\\c#d\te\nf"
    (Machine_desc.name (roundtrip weird))

let test_malformed_rejection () =
  let expect text msg =
    match Machine_io.of_string text with
    | Ok m -> Alcotest.failf "accepted %S as %s" text (Machine_desc.name m)
    | Error e -> Alcotest.(check string) ("error for " ^ String.escaped text) msg e
  in
  expect "" "line 1: missing machine header";
  expect "level 2 2\n" "line 1: expected the machine header, got \"level\"";
  expect "machine m\ncn 0 2 1\n" "line 2: cn record before any level";
  expect "machine m\nlevel 2 2\ncn 0 2 1\nlevel 2 2\n"
    "line 4: level records must precede cn records";
  expect "machine m\nlevel 2 2\ncn 0-4 2 1\n" "line 3: cn range 0-4 outside [0, 2)";
  expect "machine m\nlevel 2 2\ncn 1 0 0\n" "line 3: a CN needs at least one unit";
  expect "machine m\nlevel 2 2\ncn_in_wires 2\ncn_in_wires 2\n"
    "line 4: duplicate cn_in_wires";
  expect "machine m\nwat 1\n" "line 2: unknown record \"wat\"";
  expect "machine m\nlevel x 2\n" "line 2: fan-out must be an integer, got \"x\"";
  expect "machine m\nlevel 2 2\ndma_ports 8\n" "missing cn_in_wires record";
  expect "machine m\ncn_in_wires 2\ndma_ports 8\n" "missing level records";
  (* Comments and blank lines do not shift the reported position. *)
  expect "machine m\n# comment\n\nlevel 0 2\n" "line 4: fan-out must be >= 1"

(* ------------------------------------------------------------------ *)
(* DSE determinism and Pareto logic                                    *)
(* ------------------------------------------------------------------ *)

let dse_kernels =
  [ ("fz3", Gen.ddg ~seed:3 ()); ("fz8", Gen.ddg ~seed:8 ()) ]

let dse_points () =
  Dse.grid_points ~fanouts:[ [| 2; 2 |]; [| 4; 2 |] ] ~caps:[ 2; 4 ] ()

let test_dse_jobs_invariant () =
  let p = dse_points () in
  let seq = Dse.run ~jobs:1 ~kernels:dse_kernels p in
  let par = Dse.run ~jobs:4 ~kernels:dse_kernels p in
  Alcotest.(check string)
    "NDJSON byte-identical at jobs 1 vs 4" (Dse.to_ndjson seq)
    (Dse.to_ndjson par);
  Alcotest.(check string)
    "ranked table identical" (Dse.ranked_table seq) (Dse.ranked_table par);
  (match Dse.check seq with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("self-check: " ^ e));
  (* Tampering with the front must trip the self-check. *)
  (match seq.Dse.front with
  | [] -> Alcotest.fail "expected a non-empty front"
  | _ :: rest -> (
      match Dse.check { seq with Dse.front = rest } with
      | Ok () -> Alcotest.fail "self-check accepted a truncated front"
      | Error _ -> ()))

let test_dse_permutation_stable () =
  let p = dse_points () in
  let fwd = Dse.run ~kernels:dse_kernels p in
  let rev = Dse.run ~kernels:dse_kernels (List.rev p) in
  let front r = List.map (fun s -> s.Dse.point) r.Dse.front in
  Alcotest.(check (list string))
    "front invariant under enumeration order" (front fwd) (front rev);
  List.iter
    (fun (s : Dse.summary) ->
      let s' =
        List.find (fun (x : Dse.summary) -> x.Dse.point = s.Dse.point)
          rev.Dse.summaries
      in
      Alcotest.(check bool)
        (s.Dse.point ^ " pareto flag stable") s.Dse.pareto s'.Dse.pareto)
    fwd.Dse.summaries

let test_dse_rows_match_standalone () =
  let p = dse_points () in
  let res = Dse.run ~jobs:2 ~kernels:dse_kernels p in
  List.iter
    (fun (e : Dse.eval) ->
      let point = List.find (fun q -> q.Dse.pname = e.Dse.point) p in
      let standalone =
        Report.run point.Dse.desc (List.assoc e.Dse.kernel dse_kernels)
      in
      Alcotest.(check string)
        (e.Dse.point ^ "/" ^ e.Dse.kernel ^ " equals standalone run")
        (Report.invariant_string standalone)
        (Report.invariant_string e.Dse.report))
    res.Dse.evals

(* A machine with no address generator: seed 2262 at [hetero = 0.3]
   gives every CN [{alus = 1; ags = 0}].  The sweep must rank the point
   unviable, not die on it. *)
let test_dse_no_ag_slot () =
  let points = Dse.random_points ~hetero:0.3 ~count:1 ~seed:2262 () in
  Alcotest.(check int) "no AG slot" 0
    (Machine_desc.resources (List.hd points).Dse.desc).Hca_ddg.Mii.ag_slots;
  let res =
    Dse.run
      ~kernels:[ ("fir2dim", Hca_kernels.Fir2dim.ddg ()) ]
      points
  in
  (match res.Dse.evals with
  | [ e ] ->
      Alcotest.(check bool) "illegal row" false e.Dse.report.Report.legal;
      Alcotest.(check (option string)) "the error names the class"
        (Some "unmappable: the machine has no AG slot for the kernel's 23 AG ops")
        e.Dse.report.Report.error
  | _ -> Alcotest.fail "one evaluation expected");
  Alcotest.(check (list (option int))) "unviable" [ None ]
    (List.map (fun (s : Dse.summary) -> s.Dse.score) res.Dse.summaries);
  Alcotest.(check int) "empty front" 0 (List.length res.Dse.front);
  match Dse.check res with Ok () -> () | Error e -> Alcotest.fail e

(* The same [ags = 0] table on a hand-written machine: a kernel with AG
   ops cannot map, one without maps as on any machine, its AG class
   bounding nothing. *)
let test_no_ag_machine () =
  let machine =
    match
      Machine_io.of_string
        "machine noag\nlevel 2 4\nlevel 2 4\ncn_in_wires 2\ndma_ports 4\n\
         cn 0-3 1 0\n"
    with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let with_ag = Report.run machine (Hca_kernels.Fir2dim.ddg ()) in
  Alcotest.(check bool) "with AG ops: illegal" false with_ag.Report.legal;
  Alcotest.(check (option string)) "with AG ops: the reason"
    (Some "unmappable: the machine has no AG slot for the kernel's 23 AG ops")
    with_ag.Report.error;
  Alcotest.(check int) "with AG ops: no probe" 0 with_ag.Report.cache_misses;
  let alu_only =
    let b = Hca_ddg.Ddg.Builder.create ~name:"alu_only" () in
    let ops = List.init 6 (fun _ -> Hca_ddg.Ddg.Builder.add_instr b Hca_ddg.Opcode.Add) in
    List.iteri
      (fun i dst -> if i > 0 then Hca_ddg.Ddg.Builder.add_dep b ~src:(List.nth ops (i - 1)) ~dst)
      ops;
    Hca_ddg.Ddg.Builder.freeze b
  in
  let without = Report.run machine alu_only in
  Alcotest.(check bool) "without AG ops: legal" true without.Report.legal;
  Alcotest.(check int) "without AG ops: 6 ALU ops on 4 ALUs" 2
    without.Report.mii_res

(* Machine names reach the NDJSON verbatim, whatever bytes they hold:
   every line must stay strict JSON and give the name back exactly. *)
let test_dse_ndjson_names () =
  let machine text =
    match Machine_io.of_string text with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let body = "level 2 4\nlevel 2 4\ncn_in_wires 2\ndma_ports 4\n" in
  let descs =
    [
      ("cafe", machine ("machine café\n" ^ body));
      ("quoted", machine ("machine say\"hi\"\\tnow\n" ^ body));
    ]
  in
  Alcotest.(check string) "escaped name parsed" "say\"hi\"\tnow"
    (Machine_desc.name (List.assoc "quoted" descs));
  let res =
    Dse.run ~kernels:[ List.hd dse_kernels ] (Dse.machine_points descs)
  in
  let lines =
    List.filter (( <> ) "") (String.split_on_char '\n' (Dse.to_ndjson res))
  in
  Alcotest.(check int) "two dse rows + two point rows" 4 (List.length lines);
  List.iter
    (fun line ->
      match Hca_util.Json.parse line with
      | Error e -> Alcotest.failf "not JSON (%s): %s" e line
      | Ok row ->
          let field k = Option.bind (Hca_util.Json.member k row) Hca_util.Json.str in
          let point =
            match field "experiment" with
            | Some "dse" ->
                List.hd (String.split_on_char '/' (Option.get (field "kernel")))
            | _ -> Option.get (field "kernel")
          in
          Alcotest.(check (option string))
            (point ^ " machine field")
            (Some (Machine_desc.name (List.assoc point descs)))
            (field "machine"))
    lines

let prop_non_dominated =
  QCheck.Test.make ~name:"non_dominated agrees with the definition" ~count:300
    seed_arb (fun seed ->
      let rng = Prng.create (seed + 0xd5e) in
      let n = 1 + Prng.int rng 8 in
      let costs =
        Array.init n (fun _ ->
            (Prng.int rng 4, Prng.int rng 4, Prng.int rng 4))
      in
      let keep = Dse.non_dominated costs in
      let dominates (a1, a2, a3) (b1, b2, b3) =
        a1 <= b1 && a2 <= b2 && a3 <= b3 && (a1 < b1 || a2 < b2 || a3 < b3)
      in
      let ok = ref (Array.exists Fun.id keep) in
      Array.iteri
        (fun i ci ->
          let expect =
            not
              (Array.exists Fun.id
                 (Array.mapi
                    (fun j cj -> j <> i && dominates cj ci)
                    costs))
          in
          if keep.(i) <> expect then ok := false)
        costs;
      !ok)

(* ------------------------------------------------------------------ *)
(* Machine identity: no two machines may alias a cache entry           *)
(* ------------------------------------------------------------------ *)

let prop_id_injective =
  QCheck.Test.make ~name:"Machine_desc.id is injective" ~count:200
    QCheck.(pair seed_arb seed_arb)
    (fun (s1, s2) ->
      let a = desc_of_seed s1 and b = desc_of_seed s2 in
      Machine_desc.equal a b = (Machine_desc.id a = Machine_desc.id b))

let test_id_forgery () =
  (* A name crafted to spell another description's id suffix still
     cannot collide: the length prefix pins where the name ends. *)
  let levels = [| { Machine_desc.fanout = 2; mux_cap = 2 } |] in
  let a =
    Machine_desc.make ~name:"x;levels=2:2;cn_in=1;dma=1;tables=uniform]"
      ~levels ~cn_in_wires:1 ~dma_ports:1 ()
  in
  let b =
    Machine_desc.make ~name:"x" ~levels ~cn_in_wires:1 ~dma_ports:1 ()
  in
  Alcotest.(check bool) "forged ids differ" false
    (Machine_desc.id a = Machine_desc.id b)

let test_cache_no_cross_machine_hits () =
  let g = Gen.ddg ~seed:5 () in
  let machine_a = Dspfabric.make ~fanouts:[| 2; 2 |] ~n:4 ~m:4 ~k:4 () in
  let machine_b = Dspfabric.make ~fanouts:[| 2; 2 |] ~n:4 ~m:4 ~k:2 () in
  let cache = Hierarchy.create_cache () in
  let cold_a = Report.run ~cache machine_a g in
  Alcotest.(check int) "cold run hits nothing" 0 cold_a.Report.cache_hits;
  Alcotest.(check bool) "cold run fills the store" true
    (cold_a.Report.cache_misses > 0);
  (* A different machine, same kernel, same store: the store is warm
     but every key embeds the machine id, so nothing may alias. *)
  let cold_b = Report.run ~cache machine_b g in
  Alcotest.(check int)
    "machine B misses machine A's entries" 0 cold_b.Report.cache_hits;
  (* The same machine again does hit — the store itself works. *)
  let warm_a = Report.run ~cache machine_a g in
  Alcotest.(check bool) "machine A reruns warm" true
    (warm_a.Report.cache_hits > 0);
  Alcotest.(check string) "warm rerun bit-identical"
    (Report.invariant_string cold_a)
    (Report.invariant_string warm_a)

(* ------------------------------------------------------------------ *)
(* CN addresses: the numbering Machine_desc owns                       *)
(* ------------------------------------------------------------------ *)

let prop_cn_addresses =
  QCheck.Test.make
    ~name:"cn_of_path inverts cn_path, shared_depth is the common prefix"
    ~count:300
    QCheck.(triple seed_arb small_nat small_nat)
    (fun (seed, a, b) ->
      let m = desc_of_seed seed in
      let cns = Machine_desc.total_cns m in
      let a = a mod cns and b = b mod cns in
      let pa = Machine_desc.cn_path m a and pb = Machine_desc.cn_path m b in
      let rec common = function
        | x :: xs, y :: ys when x = y -> 1 + common (xs, ys)
        | _ -> 0
      in
      let shared = Machine_desc.shared_depth m a b in
      let cluster p =
        Machine_desc.cn_of_path m (List.filteri (fun i _ -> i < shared) p)
      in
      Machine_desc.cn_of_path m pa = a
      && shared = common (pa, pb)
      && cluster pa = cluster pb
      && cluster pa <= min a b)

let () =
  Alcotest.run "machine_gen"
    [
      ( "conformance",
        [
          Alcotest.test_case "legacy level views" `Quick test_legacy_level_views;
          Alcotest.test_case "reference constants" `Quick test_reference_constants;
          Alcotest.test_case "hetero capacities" `Quick test_hetero_capacities;
          Alcotest.test_case "hetero cluster MII" `Quick test_cluster_mii_hetero;
          Alcotest.test_case "paper-kernel routes" `Quick test_paper_kernel_routes;
          QCheck_alcotest.to_alcotest prop_fuzz_roundtrip_reports;
        ] );
      ( "machine-format",
        [
          QCheck_alcotest.to_alcotest prop_machine_roundtrip;
          Alcotest.test_case "degenerate machines" `Quick test_degenerate_roundtrip;
          Alcotest.test_case "malformed rejection" `Quick test_malformed_rejection;
        ] );
      ( "dse",
        [
          Alcotest.test_case "jobs-invariant output" `Quick test_dse_jobs_invariant;
          Alcotest.test_case "permutation-stable front" `Quick
            test_dse_permutation_stable;
          Alcotest.test_case "rows equal standalone runs" `Quick
            test_dse_rows_match_standalone;
          Alcotest.test_case "NDJSON names stay JSON" `Quick
            test_dse_ndjson_names;
          Alcotest.test_case "machine with no AG slot" `Quick
            test_dse_no_ag_slot;
          Alcotest.test_case "ags = 0 with and without AG ops" `Quick
            test_no_ag_machine;
          QCheck_alcotest.to_alcotest prop_non_dominated;
        ] );
      ("addressing", [ QCheck_alcotest.to_alcotest prop_cn_addresses ]);
      ( "aliasing",
        [
          QCheck_alcotest.to_alcotest prop_id_injective;
          Alcotest.test_case "id forgery" `Quick test_id_forgery;
          Alcotest.test_case "no cross-machine cache hits" `Quick
            test_cache_no_cross_machine_hits;
        ] );
    ]
