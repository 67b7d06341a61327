(* Property suite of the differential-fuzzing subsystem (lib/gen): the
   generator, the shrinker, the corpus codec and a bounded campaign.
   Everything here is seeded — a failure reproduces verbatim. *)

open Hca_ddg
open Hca_machine
open Hca_gen

(* Paths beside the test binary, where dune puts [corpus/], so the
   suite passes from any working directory. *)
let beside_exe name =
  Filename.concat (Filename.dirname Sys.executable_name) name

(* --- generator ---------------------------------------------------------- *)

let test_generator_deterministic () =
  let a = Gen.instance ~seed:42 () and b = Gen.instance ~seed:42 () in
  Alcotest.(check string)
    "same seed, same kernel"
    (Ddg_io.to_string a.Gen.ddg)
    (Ddg_io.to_string b.Gen.ddg);
  Alcotest.(check bool)
    "same seed, same machine" true
    (Machine_desc.equal a.Gen.fabric b.Gen.fabric);
  let c = Gen.instance ~seed:43 () in
  Alcotest.(check bool) "different seed, different kernel" false
    (Ddg_io.to_string a.Gen.ddg = Ddg_io.to_string c.Gen.ddg)

let fanouts m =
  Array.map (fun (l : Machine_desc.level) -> l.fanout) (Machine_desc.levels m)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000)

let prop_generated_well_formed =
  QCheck.Test.make ~name:"generated kernels are well-formed" ~count:150
    seed_arb (fun seed ->
      let g = Gen.ddg ~seed () in
      Gen.well_formed g
      && Array.exists
           (fun (i : Instr.t) -> i.Instr.opcode = Opcode.Store)
           (Ddg.instrs g)
      && Array.for_all
           (fun (e : Ddg.edge) -> e.distance > 0 || e.src < e.dst)
           (Ddg.edges g))

let prop_generated_fabric_sane =
  QCheck.Test.make ~name:"generated machines expose their knobs" ~count:100
    seed_arb (fun seed ->
      let f = Gen.fabric ~seed () in
      let fanouts = fanouts f in
      Array.length fanouts >= 2
      && Array.for_all (fun x -> x >= 2) fanouts
      && Machine_desc.cn_in_wires f >= 1)

let prop_roundtrip_exact =
  QCheck.Test.make ~name:"Ddg_io round-trips generated kernels exactly"
    ~count:150 seed_arb (fun seed ->
      let g = Gen.ddg ~seed () in
      match Ddg_io.of_string (Ddg_io.to_string g) with
      | Ok g' -> Ddg.equal_exact g g'
      | Error _ -> false)

let test_roundtrip_weird_names () =
  (* Names with the characters the printer must escape. *)
  let b = Ddg.Builder.create ~name:"odd name\twith \\ specials" () in
  let c = Ddg.Builder.add_instr b ~name:"a const" (Opcode.Const 7) in
  let m = Ddg.Builder.add_instr b ~name:"esc\\_x" Opcode.Mov in
  let s = Ddg.Builder.add_instr b ~name:"s t o r e" Opcode.Store in
  Ddg.Builder.add_dep b ~src:c ~dst:m;
  Ddg.Builder.add_dep b ~src:m ~dst:s ~distance:1;
  let g = Ddg.Builder.freeze b in
  match Ddg_io.of_string (Ddg_io.to_string g) with
  | Ok g' -> Alcotest.(check bool) "exact round-trip" true (Ddg.equal_exact g g')
  | Error e -> Alcotest.fail e

(* A reproducer must replay the instance it was written from: the
   machine read back is [Machine_desc.equal] to the one written (name,
   per-level capacities and per-CN tables included), on every generated
   shape and on a heterogeneous 4-level description. *)
let test_corpus_roundtrip_file () =
  let dir = beside_exe "tmp-corpus-roundtrip" in
  let roundtrip what (inst : Gen.instance) =
    Corpus.write ~dir ~name:"probe" inst (Corpus.Expect_gap 2);
    match Corpus.read (Filename.concat dir "probe.repro") with
    | Error e -> Alcotest.failf "%s: %s" what e
    | Ok entry ->
        Alcotest.(check bool) (what ^ ": kernel identical") true
          (Ddg.equal_exact inst.Gen.ddg entry.Corpus.instance.Gen.ddg);
        Alcotest.(check bool) (what ^ ": machine identical") true
          (Machine_desc.equal inst.Gen.fabric entry.Corpus.instance.Gen.fabric);
        Alcotest.(check bool) (what ^ ": expectation preserved") true
          (entry.Corpus.expect = Corpus.Expect_gap 2)
  in
  for seed = 0 to 199 do
    roundtrip (Printf.sprintf "fabric seed %d" seed) (Gen.instance ~seed ())
  done;
  let hetero =
    Gen.desc
      ~knobs:
        { Gen.default_machine_knobs with fanout_choices = [| [| 2; 2; 2; 2 |] |] }
      ~hetero:1.0 ~seed:7 ()
  in
  Alcotest.(check int) "4 levels" 4 (Machine_desc.depth hetero);
  Alcotest.(check bool) "heterogeneous" false (Machine_desc.is_uniform hetero);
  roundtrip "heterogeneous" { (Gen.instance ~seed:7 ()) with Gen.fabric = hetero }

(* --- shrinker ----------------------------------------------------------- *)

let has_store g =
  Array.exists
    (fun (i : Instr.t) -> i.Instr.opcode = Opcode.Store)
    (Ddg.instrs g)

let test_shrinker_minimizes () =
  let inst = Gen.instance ~seed:5 () in
  let keep (i : Gen.instance) = has_store i.Gen.ddg in
  let small = Shrink.minimize ~keep inst in
  Alcotest.(check bool) "predicate preserved" true (keep small);
  Alcotest.(check bool) "well-formed" true (Gen.well_formed small.Gen.ddg);
  (* The smallest well-formed kernel with a store is producer+store. *)
  Alcotest.(check int) "two nodes left" 2 (Ddg.size small.Gen.ddg);
  Alcotest.(check (array int))
    "machine collapsed to the smallest shape" [| 2; 2 |]
    (fanouts small.Gen.fabric);
  (* Fixpoint: no accepted one-step reduction remains. *)
  Alcotest.(check bool) "no smaller candidate" true
    (List.for_all
       (fun d -> not (keep { small with Gen.ddg = d }))
       (Shrink.ddg_candidates small.Gen.ddg))

let test_shrinker_rejects_bad_keep () =
  let inst = Gen.instance ~seed:5 () in
  Alcotest.check_raises "keep must accept the start"
    (Invalid_argument "Shrink.minimize: predicate rejects the initial instance")
    (fun () -> ignore (Shrink.minimize ~keep:(fun _ -> false) inst))

(* --- bounded campaign --------------------------------------------------- *)

let test_bounded_campaign_green () =
  let buf = Buffer.create 256 in
  let log line = Buffer.add_string buf (line ^ "\n") in
  let stats = Fuzz.run ~log ~seed:0 ~count:20 () in
  Alcotest.(check int) "all instances visited" 20 stats.Fuzz.instances;
  Alcotest.(check int) "no failures" 0 stats.Fuzz.failed;
  Alcotest.(check int) "ok + infeasible covers the range" 20
    (stats.Fuzz.ok + stats.Fuzz.infeasible);
  (* The transcript is a pure function of the seed range. *)
  let buf' = Buffer.create 256 in
  let stats' =
    Fuzz.run ~log:(fun l -> Buffer.add_string buf' (l ^ "\n")) ~seed:0
      ~count:20 ()
  in
  Alcotest.(check string) "transcript deterministic" (Buffer.contents buf)
    (Buffer.contents buf');
  Alcotest.(check string) "summary deterministic" (Fuzz.summary_line stats)
    (Fuzz.summary_line stats')

let test_corpus_replays_clean () =
  let total, mismatches = Fuzz.replay_dir (beside_exe "corpus") in
  Alcotest.(check bool) "corpus is not empty" true (total >= 2);
  Alcotest.(check int) "all reproducers replay to their verdict" 0 mismatches

let () =
  Alcotest.run "fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          QCheck_alcotest.to_alcotest prop_generated_well_formed;
          QCheck_alcotest.to_alcotest prop_generated_fabric_sane;
        ] );
      ( "round-trip",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip_exact;
          Alcotest.test_case "weird names" `Quick test_roundtrip_weird_names;
          Alcotest.test_case "corpus files" `Quick test_corpus_roundtrip_file;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "minimizes to producer+store" `Quick
            test_shrinker_minimizes;
          Alcotest.test_case "rejects bad keep" `Quick
            test_shrinker_rejects_bad_keep;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "bounded run is green" `Slow
            test_bounded_campaign_green;
          Alcotest.test_case "corpus replays clean" `Slow
            test_corpus_replays_clean;
        ] );
    ]
