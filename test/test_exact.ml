(* Tests for the exact SAT-based cluster-assignment oracle: the CDCL
   solver on hand-built CNFs, the cardinality encoder, and the oracle
   cross-checked against the flat-ICA heuristic. *)

open Hca_ddg
open Hca_machine
open Hca_exact

(* ------------------------------------------------------------------ *)
(* CDCL solver on hand-built formulas.                                 *)
(* ------------------------------------------------------------------ *)

let result =
  Alcotest.testable
    (fun ppf -> function
      | Sat.Sat -> Format.pp_print_string ppf "sat"
      | Sat.Unsat -> Format.pp_print_string ppf "unsat"
      | Sat.Unknown -> Format.pp_print_string ppf "unknown")
    ( = )

let test_sat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ -a ];
  Alcotest.check result "sat" Sat.Sat (Sat.solve s);
  Alcotest.(check bool) "a false" false (Sat.value s a);
  Alcotest.(check bool) "b true" true (Sat.value s b)

let test_unsat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ a ];
  Sat.add_clause s [ -a ];
  Alcotest.check result "unsat" Sat.Unsat (Sat.solve s)

let test_empty_clause () =
  let s = Sat.create () in
  let _ = Sat.new_var s in
  Sat.add_clause s [];
  Alcotest.check result "unsat" Sat.Unsat (Sat.solve s)

let test_pigeonhole () =
  (* 4 pigeons, 3 holes: needs real conflict learning to refute. *)
  let s = Sat.create () in
  let v = Array.init 4 (fun _ -> Array.init 3 (fun _ -> Sat.new_var s)) in
  for p = 0 to 3 do
    Sat.add_clause s (Array.to_list v.(p))
  done;
  for h = 0 to 2 do
    for p = 0 to 3 do
      for q = p + 1 to 3 do
        Sat.add_clause s [ -v.(p).(h); -v.(q).(h) ]
      done
    done
  done;
  Alcotest.check result "php(4,3)" Sat.Unsat (Sat.solve s)

let test_assumptions_incremental () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Alcotest.check result "sat under -a" Sat.Sat (Sat.solve ~assumptions:[ -a ] s);
  Alcotest.(check bool) "b forced" true (Sat.value s b);
  (* The clause set stays usable after an unsat-under-assumptions call. *)
  Sat.add_clause s [ -b ];
  Alcotest.check result "unsat under -a" Sat.Unsat
    (Sat.solve ~assumptions:[ -a ] s);
  Alcotest.check result "still sat" Sat.Sat (Sat.solve s);
  Alcotest.(check bool) "a forced" true (Sat.value s a)

(* Cross-check the solver against brute force on random 3-CNFs. *)
let test_random_3sat_vs_bruteforce () =
  let prng = Hca_util.Prng.create 20260805 in
  let nvars = 8 and nclauses = 32 in
  for _ = 1 to 40 do
    let clauses =
      List.init nclauses (fun _ ->
          List.init 3 (fun _ ->
              let v = 1 + Hca_util.Prng.int prng nvars in
              if Hca_util.Prng.bool prng then v else -v))
    in
    let brute =
      let sat = ref false in
      for m = 0 to (1 lsl nvars) - 1 do
        if
          (not !sat)
          && List.for_all
               (List.exists (fun l ->
                    let v = abs l - 1 in
                    let bit = m land (1 lsl v) <> 0 in
                    if l > 0 then bit else not bit))
               clauses
        then sat := true
      done;
      if !sat then Sat.Sat else Sat.Unsat
    in
    let s = Sat.create () in
    for _ = 1 to nvars do
      ignore (Sat.new_var s)
    done;
    List.iter (Sat.add_clause s) clauses;
    Alcotest.check result "matches brute force" brute (Sat.solve s)
  done

(* ------------------------------------------------------------------ *)
(* Cardinality encoding.                                               *)
(* ------------------------------------------------------------------ *)

let test_at_most () =
  let s = Sat.create () in
  let vars = List.init 5 (fun _ -> Sat.new_var s) in
  Encode.at_most s vars 2;
  (* Forcing three of the five true must contradict the counter. *)
  (match vars with
  | a :: b :: c :: _ ->
      Alcotest.check result "3 > 2" Sat.Unsat
        (Sat.solve ~assumptions:[ a; b; c ] s)
  | _ -> assert false);
  (match vars with
  | a :: b :: _ ->
      Alcotest.check result "2 <= 2" Sat.Sat (Sat.solve ~assumptions:[ a; b ] s)
  | _ -> assert false)

let test_at_most_zero () =
  let s = Sat.create () in
  let vars = List.init 3 (fun _ -> Sat.new_var s) in
  Encode.at_most s vars 0;
  Alcotest.check result "sat all-false" Sat.Sat (Sat.solve s);
  List.iter
    (fun v -> Alcotest.(check bool) "forced false" false (Sat.value s v))
    vars

(* ------------------------------------------------------------------ *)
(* Oracle on a hand-built kernel with a known optimum.                  *)
(* ------------------------------------------------------------------ *)

let small_fabric = Dspfabric.make ~fanouts:[| 2; 2; 2 |] ~n:2 ~m:2 ~k:2 ()

let chain4 () =
  (* a -> b -> c -> d, all ALU ops.  On unit-capacity CNs every non-head
     segment of the chain pays one receive on its ALU slot, so feasible
     bounds k admit one head segment of k ops plus tail segments of
     k - 1 ops each: k = 1 packs at most 1 node, k = 2 packs 2+1+1 = 4.
     The proven optimum of the projected final MII is therefore 2. *)
  let b = Ddg.Builder.create ~name:"chain4" () in
  let a = Ddg.Builder.add_instr b ~name:"a" Opcode.Add in
  let b' = Ddg.Builder.add_instr b ~name:"b" Opcode.Add in
  let c = Ddg.Builder.add_instr b ~name:"c" Opcode.Add in
  let d = Ddg.Builder.add_instr b ~name:"d" Opcode.Add in
  Ddg.Builder.add_dep b ~src:a ~dst:b';
  Ddg.Builder.add_dep b ~src:b' ~dst:c;
  Ddg.Builder.add_dep b ~src:c ~dst:d;
  Ddg.Builder.freeze b

let test_oracle_chain_optimal () =
  let r = Oracle.run ~budget_s:20. small_fabric (chain4 ()) in
  (match r.Oracle.status with
  | Oracle.Optimal -> ()
  | s -> Alcotest.failf "expected optimal, got %s" (Oracle.status_to_string s));
  Alcotest.(check (option int)) "optimum 2" (Some 2) r.Oracle.final_mii;
  Alcotest.(check int) "lower bound matches" 2 r.Oracle.lower_bound;
  match r.Oracle.assignment with
  | None -> Alcotest.fail "optimal without a model"
  | Some a ->
      Alcotest.(check int) "every node placed" 0
        (Array.fold_left (fun acc c -> if c < 0 then acc + 1 else acc) 0 a)

let test_oracle_strict_no_better () =
  (* The structural wire clauses can only shrink the feasible set. *)
  let relaxed = Oracle.run ~budget_s:20. small_fabric (chain4 ()) in
  let strict = Oracle.run ~strict:true ~budget_s:20. small_fabric (chain4 ()) in
  match (relaxed.Oracle.final_mii, strict.Oracle.final_mii) with
  | Some r, Some s -> Alcotest.(check bool) "strict >= relaxed" true (s >= r)
  | _ -> Alcotest.fail "both searches should conclude on 4 nodes"

(* Generated instances whose verdict the symmetry breaking settles
   under [oracle_certify]'s conflict budget (each was [feasible] with
   the plain encoding), seeded with the heuristic incumbent the way
   that workload and [hca exact] seed it.  The workload's own smoke
   inputs were optimal either way, so only this case sees a verdict
   change. *)
let test_oracle_certify_verdicts () =
  List.iter
    (fun seed ->
      let inst = Hca_gen.Gen.instance ~seed () in
      let r = Hca_core.Report.run ~jobs:1 inst.fabric inst.ddg in
      let incumbent = if r.legal then r.final_mii else None in
      let o =
        Oracle.run ~budget_s:infinity ~max_conflicts:8000 ?incumbent
          inst.fabric inst.ddg
      in
      Alcotest.(check string)
        (Printf.sprintf "instance %d" seed)
        "optimal lb=4 mii=4"
        (Printf.sprintf "%s lb=%d mii=%s"
           (Oracle.status_to_string o.Oracle.status)
           o.Oracle.lower_bound
           (match o.Oracle.final_mii with
           | Some m -> string_of_int m
           | None -> "-")))
    [ 3; 7; 30; 33 ]

let test_encode_model_checks () =
  let problem = Hca_core.Problem.flat small_fabric (chain4 ()) in
  let inst = Encode.of_problem problem in
  let enc = Encode.encode inst ~k:2 in
  Alcotest.check result "k=2 sat" Sat.Sat (Sat.solve enc.Encode.sat);
  let a = Encode.decode inst enc in
  Alcotest.(check bool) "recomputed MII within bound" true
    (Encode.cluster_mii_of_assignment inst a <= 2);
  let enc1 = Encode.encode inst ~k:1 in
  Alcotest.check result "k=1 unsat" Sat.Unsat (Sat.solve enc1.Encode.sat)

(* ------------------------------------------------------------------ *)
(* Counter ladder: the incremental probing brick.                       *)
(* ------------------------------------------------------------------ *)

let test_counter_ladder () =
  let s = Sat.create () in
  let vars = List.init 6 (fun _ -> Sat.new_var s) in
  let out = Encode.counter s vars ~width:4 in
  Alcotest.(check int) "width respected" 4 (Array.length out);
  (* The same solver answers every bound b through one assumption. *)
  let take n = List.filteri (fun i _ -> i < n) vars in
  for b = 1 to 3 do
    Alcotest.check result
      (Printf.sprintf "%d > %d refuted" (b + 1) b)
      Sat.Unsat
      (Sat.solve ~assumptions:(-out.(b) :: take (b + 1)) s);
    Alcotest.check result
      (Printf.sprintf "%d <= %d fine" b b)
      Sat.Sat
      (Sat.solve ~assumptions:(-out.(b) :: take b) s)
  done;
  (* Unconstrained without the assumption: all six can be true. *)
  Alcotest.check result "no bound assumed" Sat.Sat (Sat.solve ~assumptions:vars s)

(* ------------------------------------------------------------------ *)
(* Symmetry breaking, pinned to the plain reference encoding.           *)
(* ------------------------------------------------------------------ *)

(* Kernels of at most 11 nodes: the plain side refutes every relabelling
   of equal-capacity CNs separately, which on 12-node kernels already
   takes seconds for about one seed in a hundred. *)
let small_knobs = { Hca_gen.Gen.default_ddg_knobs with max_size = 11 }

let flat_problem ?(knobs = small_knobs) ~hetero seed =
  Hca_core.Problem.flat
    (Hca_gen.Gen.desc ~hetero ~seed ())
    (Hca_gen.Gen.ddg ~knobs ~seed ())

(* Permuting CNs within a capacity group maps models to models, so the
   precedence clauses may drop models but never a verdict: at every
   bound, in both modes, the two encodings must agree. *)
let prop_verdicts_match_ref ~hetero =
  QCheck.Test.make ~count:30
    ~name:(Printf.sprintf "verdicts = plain encoding (hetero %.1f)" hetero)
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let problem = flat_problem ~hetero seed in
      let inst = Encode.of_problem problem in
      let plain = Encode_ref.of_problem problem in
      List.for_all
        (fun strict ->
          List.for_all
            (fun k ->
              Sat.solve (Encode.encode ~strict inst ~k).Encode.sat
              = Sat.solve (Encode_ref.encode ~strict plain ~k).Encode_ref.sat)
            (List.init (min 6 (Encode.size inst)) (fun i -> i + 1)))
        [ false; true ])

(* The CNs of [plain] grouped by equal capacity table, each in CN order. *)
let capacity_groups (plain : Encode_ref.instance) =
  let cap = plain.Encode_ref.capacity in
  let cns = List.init plain.Encode_ref.cns Fun.id in
  List.filter_map
    (fun c0 ->
      let group = List.filter (fun c -> Resource.equal cap.(c0) cap.(c)) cns in
      if List.hd group = c0 then Some group else None)
    cns

(* The CNs of [group] that host a node, in order of first use. *)
let first_uses group a =
  Array.fold_left
    (fun used c ->
      if List.mem c group && not (List.mem c used) then used @ [ c ] else used)
    [] a

(* Relabels [a] within each group so that the i-th CN used becomes the
   group's i-th CN. *)
let canonical (plain : Encode_ref.instance) a =
  let groups = capacity_groups plain in
  let perm = Array.init plain.Encode_ref.cns Fun.id in
  List.iter
    (fun group ->
      List.iteri (fun i c -> perm.(c) <- List.nth group i) (first_uses group a))
    groups;
  Array.map (fun c -> perm.(c)) a

(* Does the symmetry-broken encoding at bound [k] accept exactly the
   assignment [a]?  Assumptions fix every x(n,c). *)
let admits ~strict inst ~k a =
  let enc = Encode.encode ~strict inst ~k in
  let fix =
    List.concat
      (List.mapi
         (fun nd row ->
           List.mapi (fun c v -> if a.(nd) = c then v else -v) (Array.to_list row))
         (Array.to_list enc.Encode.assign_var))
  in
  Sat.solve ~assumptions:fix enc.Encode.sat

let test_canonical_form () =
  List.iter
    (fun (hetero, strict) ->
      let seed = 3 in
      let problem =
        flat_problem ~knobs:Hca_gen.Gen.default_ddg_knobs ~hetero seed
      in
      let inst = Encode.of_problem problem in
      let plain = Encode_ref.of_problem problem in
      let label = Printf.sprintf "hetero %.1f%s" hetero (if strict then " strict" else "") in
      (* The tightest bound spreads the model over the most CNs. *)
      let rec tightest k =
        if Sat.solve (Encode.encode ~strict inst ~k).Encode.sat = Sat.Sat then k
        else tightest (k + 1)
      in
      let k = tightest 1 in
      let enc = Encode_ref.encode ~strict plain ~k in
      Alcotest.check result (label ^ ": plain side sat") Sat.Sat
        (Sat.solve enc.Encode_ref.sat);
      let a = canonical plain (Encode_ref.decode plain enc) in
      Alcotest.check result (label ^ ": canonical relabelling accepted") Sat.Sat
        (admits ~strict inst ~k a);
      (* Swapping two used CNs of one group inverts their first uses. *)
      let swaps = ref 0 in
      List.iter
        (fun group ->
          let used = first_uses group a in
          List.iter
            (fun c ->
              List.iter
                (fun c' ->
                  if c < c' then begin
                    incr swaps;
                    let swapped =
                      Array.map
                        (fun x -> if x = c then c' else if x = c' then c else x)
                        a
                    in
                    Alcotest.check result
                      (Printf.sprintf "%s: CNs %d and %d swapped refuted" label c c')
                      Sat.Unsat
                      (admits ~strict inst ~k swapped)
                  end)
                used)
            used)
        (capacity_groups plain);
      Alcotest.(check bool) (label ^ ": some group uses two CNs") true (!swaps > 0))
    [ (0., false); (0., true); (0.5, false); (0.5, true) ]

(* ------------------------------------------------------------------ *)
(* Incremental vs fresh equivalence, with and without clause reuse.     *)
(* ------------------------------------------------------------------ *)

(* Probe "cluster MII <= k" for every k in [1, max_k], three ways: a
   fresh encoding+solver per k, one incremental solver reusing learnt
   clauses across the walk, and one incremental solver dropping them
   before every probe.  All three must return the same verdict at every
   single k — which also pins the certified optimum. *)
(* Indexed ascending by k (element i is the verdict at k = i + 1); the
   incremental solvers still probe in the oracle's downward order. *)
let probe_every_k ~strict inst ~max_k =
  let fresh =
    List.init max_k (fun i ->
        let enc = Encode.encode ~strict inst ~k:(i + 1) in
        Sat.solve enc.Encode.sat)
  in
  let incremental ~reuse =
    let inc = Encode.make ~strict inst ~max_k in
    let sat = inc.Encode.enc.Encode.sat in
    List.rev_map
      (fun k ->
        if not reuse then Sat.clear_learnt sat;
        Sat.new_probe sat;
        Sat.solve ~assumptions:(Encode.assumptions inc ~k) sat)
      (List.init max_k (fun i -> max_k - i))
  in
  (fresh, incremental ~reuse:true, incremental ~reuse:false)

let test_incremental_vs_fresh () =
  List.iter
    (fun (seed, strict) ->
      let ddg = Hca_gen.Gen.ddg ~seed () in
      let fabric = Hca_gen.Gen.fabric ~seed () in
      let inst = Encode.of_problem (Hca_core.Problem.flat fabric ddg) in
      let max_k = min 6 (Encode.size inst) in
      let fresh, inc_reuse, inc_noreuse = probe_every_k ~strict inst ~max_k in
      let check_against label =
        List.iteri (fun i v ->
            Alcotest.check result
              (Printf.sprintf "seed %d%s k=%d %s matches fresh" seed
                 (if strict then " strict" else "")
                 (i + 1) label)
              (List.nth fresh i) v)
      in
      check_against "reuse" inc_reuse;
      check_against "no-reuse" inc_noreuse)
    (List.concat_map
       (fun seed -> [ (seed, false); (seed, true) ])
       [ 3; 11; 23 ])

let test_oracle_reuse_equivalence () =
  (* Same verdict and same certified bounds with and without clause
     reuse, at a fixed conflict budget (pure function of the instance). *)
  let kernels =
    chain4 () :: List.map (fun seed -> Hca_gen.Gen.ddg ~seed ()) [ 5; 29 ]
  in
  List.iter
    (fun ddg ->
      let go reuse =
        Oracle.run ~budget_s:infinity ~max_conflicts:50_000 ~reuse small_fabric
          ddg
      in
      let a = go true and b = go false in
      Alcotest.(check string)
        (Ddg.name ddg ^ ": status agrees")
        (Oracle.status_to_string a.Oracle.status)
        (Oracle.status_to_string b.Oracle.status);
      Alcotest.(check (option int))
        (Ddg.name ddg ^ ": final MII agrees")
        a.Oracle.final_mii b.Oracle.final_mii;
      Alcotest.(check int)
        (Ddg.name ddg ^ ": lower bound agrees")
        a.Oracle.lower_bound b.Oracle.lower_bound;
      (* The reuse arm can only see reused hits; the control arm none. *)
      Alcotest.(check int)
        (Ddg.name ddg ^ ": control arm has no cross-probe hits")
        0 b.Oracle.reused_hits)
    kernels

(* ------------------------------------------------------------------ *)
(* Model soundness across clause-DB reductions.                         *)
(* ------------------------------------------------------------------ *)

let test_model_check_after_reduction () =
  (* A reduce_start low enough that every non-trivial solve crosses it
     several times: models must still satisfy the original clauses. *)
  (* 3-SAT near the phase transition (ratio ~4.25) so each solve racks
     up enough conflicts to cross the reduction limit repeatedly. *)
  let prng = Hca_util.Prng.create 20260808 in
  let nvars = 40 and nclauses = 170 in
  let reductions = ref 0 in
  for round = 1 to 12 do
    let clauses =
      List.init nclauses (fun _ ->
          List.init 3 (fun _ ->
              let v = 1 + Hca_util.Prng.int prng nvars in
              if Hca_util.Prng.bool prng then v else -v))
    in
    let s = Sat.create ~reduce_start:8 () in
    for _ = 1 to nvars do
      ignore (Sat.new_var s)
    done;
    List.iter (Sat.add_clause s) clauses;
    (match Sat.solve s with
    | Sat.Sat ->
        (* Against the original clause list... *)
        List.iter
          (fun clause ->
            Alcotest.(check bool)
              (Printf.sprintf "round %d: original clause satisfied" round)
              true
              (List.exists
                 (fun l ->
                   if l > 0 then Sat.value s l else not (Sat.value s (-l)))
                 clause))
          clauses;
        (* ... and against what the arena still stores after GC. *)
        Sat.fold_problem_clauses s
          (fun () clause ->
            Alcotest.(check bool)
              (Printf.sprintf "round %d: stored clause satisfied" round)
              true
              (List.exists
                 (fun l ->
                   if l > 0 then Sat.value s l else not (Sat.value s (-l)))
                 clause))
          ()
    | Sat.Unsat -> ()
    | Sat.Unknown -> Alcotest.fail "no budget was set");
    reductions := !reductions + Sat.deleted_total s
  done;
  Alcotest.(check bool)
    "the reduction path was actually exercised" true (!reductions > 0)

let test_probe_epoch_stats () =
  (* Two probes of the same instance: the second must fire clauses the
     first learned.  chain4 at k=1 is a refutation with real learning. *)
  let inst = Encode.of_problem (Hca_core.Problem.flat small_fabric (chain4 ())) in
  let inc = Encode.make inst ~max_k:4 in
  let sat = inc.Encode.enc.Encode.sat in
  Sat.new_probe sat;
  Alcotest.check result "k=1 unsat" Sat.Unsat
    (Sat.solve ~assumptions:(Encode.assumptions inc ~k:1) sat);
  Alcotest.(check int) "no cross-probe hits yet" 0 (Sat.reused_hits sat);
  let learnt_before = Sat.learnt_total sat in
  Sat.new_probe sat;
  Alcotest.check result "k=1 unsat again" Sat.Unsat
    (Sat.solve ~assumptions:(Encode.assumptions inc ~k:1) sat);
  Alcotest.(check bool) "second refutation reused learned clauses" true
    (Sat.reused_hits sat > 0 || Sat.learnt_total sat = learnt_before)

(* ------------------------------------------------------------------ *)
(* Cross-check: the oracle is a certified lower bound on the SEE.       *)
(* ------------------------------------------------------------------ *)

let crosscheck_kernel name ddg =
  let fabric = small_fabric in
  let flat = Hca_baseline.Flat_ica.run ~config:Hca_core.Config.greedy fabric ddg in
  match (flat.Hca_baseline.Flat_ica.outcome, flat.Hca_baseline.Flat_ica.projected_mii) with
  | Some _, Some projected ->
      let ini = Mii.mii ddg (Dspfabric.resources fabric) in
      let achieved = max ini projected in
      let oracle = Oracle.run ~budget_s:10. fabric ddg in
      Alcotest.(check bool)
        (name ^ ": certified lower bound <= SEE result")
        true
        (oracle.Oracle.lower_bound <= achieved);
      (match oracle.Oracle.final_mii with
      | Some f ->
          Alcotest.(check bool)
            (name ^ ": oracle never above a legal SEE MII")
            true (f <= achieved)
      | None -> ())
  | _ -> () (* SEE found nothing to compare against *)

let test_crosscheck_synthetic () =
  List.iter
    (fun (size, seed) ->
      let ddg =
        Hca_kernels.Synthetic.generate
          {
            Hca_kernels.Synthetic.default with
            size;
            layers = 3;
            seed;
            recurrences = 1;
          }
      in
      crosscheck_kernel (Printf.sprintf "syn%d/%d" size seed) ddg)
    [ (10, 1); (12, 2); (14, 3) ]

let test_crosscheck_chain () = crosscheck_kernel "chain4" (chain4 ())

let () =
  Alcotest.run "exact"
    [
      ( "sat",
        [
          Alcotest.test_case "basic sat" `Quick test_sat_basic;
          Alcotest.test_case "basic unsat" `Quick test_unsat_basic;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
          Alcotest.test_case "assumptions" `Quick test_assumptions_incremental;
          Alcotest.test_case "vs brute force" `Quick test_random_3sat_vs_bruteforce;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "at most k" `Quick test_at_most;
          Alcotest.test_case "at most 0" `Quick test_at_most_zero;
          Alcotest.test_case "counter ladder" `Quick test_counter_ladder;
        ] );
      ( "symmetry",
        [
          QCheck_alcotest.to_alcotest (prop_verdicts_match_ref ~hetero:0.);
          QCheck_alcotest.to_alcotest (prop_verdicts_match_ref ~hetero:0.5);
          Alcotest.test_case "canonical form" `Quick test_canonical_form;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "vs fresh at every k" `Slow
            test_incremental_vs_fresh;
          Alcotest.test_case "oracle reuse on/off" `Slow
            test_oracle_reuse_equivalence;
          Alcotest.test_case "model check after reduction" `Quick
            test_model_check_after_reduction;
          Alcotest.test_case "probe epochs" `Quick test_probe_epoch_stats;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "chain optimum" `Quick test_oracle_chain_optimal;
          Alcotest.test_case "strict no better" `Quick test_oracle_strict_no_better;
          Alcotest.test_case "oracle_certify verdicts" `Quick
            test_oracle_certify_verdicts;
          Alcotest.test_case "model checks" `Quick test_encode_model_checks;
        ] );
      ( "crosscheck",
        [
          Alcotest.test_case "synthetic" `Slow test_crosscheck_synthetic;
          Alcotest.test_case "chain" `Quick test_crosscheck_chain;
        ] );
    ]
