(* The multicore runtime and the incremental cost path.

   Most of this file checks one contract: adding domains (or the
   incremental cache) never changes a result, only the wall clock.  The
   pool must preserve order and surface the sequential error; the top-k
   filter must equal the sorted prefix it replaced; every move path of
   [State] must rewind its input and agree bit for bit with the
   from-scratch recompute and a blocked-arc reference; and the
   parallel portfolio driver must reproduce its sequential run field
   for field, and [Report.run] its [jobs = 1] memo-on run on long II
   climbs.  Two more properties guard the SEE itself: its final beam
   never holds two equal states, and its outcome is the same at every
   II of the window it reports. *)

open Hca_machine
open Hca_core

(* ------------------------------------------------------------------ *)
(* Domain_pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_order () =
  let xs = List.init 100 Fun.id in
  let expect = List.map (fun i -> i * i) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "order at jobs=%d" jobs)
        expect
        (Hca_util.Domain_pool.parallel_map ~jobs (fun i -> i * i) xs))
    [ 1; 2; 4; 8 ]

let test_pool_empty_and_single () =
  Alcotest.(check (list int))
    "empty" []
    (Hca_util.Domain_pool.parallel_map ~jobs:4 (fun i -> i) []);
  Alcotest.(check (list int))
    "singleton" [ 7 ]
    (Hca_util.Domain_pool.parallel_map ~jobs:4 (fun i -> i + 1) [ 6 ])

let test_pool_first_error_wins () =
  (* The sequential run would die on index 5; the pool must raise that
     same failure no matter which domain finishes first. *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "lowest-index error at jobs=%d" jobs)
        (Failure "boom5")
        (fun () ->
          ignore
            (Hca_util.Domain_pool.parallel_map ~jobs
               (fun i ->
                 if i >= 5 then failwith (Printf.sprintf "boom%d" i) else i)
               (List.init 10 Fun.id))))
    [ 1; 4 ]

let test_pool_reusable () =
  Hca_util.Domain_pool.with_pool ~jobs:3 (fun pool ->
      for round = 1 to 5 do
        let got =
          Hca_util.Domain_pool.map pool (fun i -> i * round) [ 1; 2; 3 ]
        in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          [ round; 2 * round; 3 * round ]
          got
      done)

(* ------------------------------------------------------------------ *)
(* Topk                                                                *)
(* ------------------------------------------------------------------ *)

let prop_topk_matches_sorted_prefix =
  (* Small keys force ties, so this also pins the stability contract:
     among equal keys the earlier list element wins. *)
  QCheck.Test.make ~name:"Topk.smallest = sorted prefix (stable)" ~count:500
    QCheck.(pair (int_range 0 12) (small_list (int_range 0 5)))
    (fun (k, keys) ->
      let l = List.mapi (fun i key -> (float_of_int key, i)) keys in
      let key (x, _) = x in
      let reference =
        List.filteri
          (fun i _ -> i < k)
          (List.sort (fun a b -> compare (key a) (key b)) l)
      in
      Hca_util.Topk.smallest ~k ~key l = reference)

(* ------------------------------------------------------------------ *)
(* The move path: incremental cost, rewinds and blocked arcs           *)
(* ------------------------------------------------------------------ *)

(* A complete 4-cluster PG whose in-neighbour budget [max_in] (1–3 in
   the walks below) binds, so some moves find no communication
   pattern. *)
let synthetic_problem ~max_in seed size =
  let ddg =
    Hca_kernels.Synthetic.generate
      {
        Hca_kernels.Synthetic.default with
        size;
        layers = 3;
        mem_ratio = 0.0;
        recurrences = 1;
        seed;
      }
  in
  let pg =
    Pattern_graph.complete ~name:"inc-cost"
      ~capacities:(Array.make 4 { Resource.alus = 8; ags = 8 })
      ~max_in
  in
  Problem.of_ddg ~name:"inc-cost" ~ddg ~pg ()

(* Random walk committing one legal move per node, visiting the nodes
   in a seeded permutation so consumers are often placed before their
   producers.  Before each commit, [probe] sees the current state and a
   pristine clone of it for each of the four clusters, two out-of-range
   ids and a negative one, and returns false to fail the property.
   Returns the verdict and the final state. *)
let walk_with_probes ~seed ~size probe =
  let rng = Hca_util.Prng.create (seed + 23) in
  let problem = synthetic_problem ~max_in:(1 + Hca_util.Prng.int rng 3) seed size in
  let order = Array.init (Problem.size problem) Fun.id in
  Hca_util.Prng.shuffle rng order;
  let ii = 8 and target_ii = 8 in
  let weights = Cost.default_weights in
  let st = ref (State.create problem) in
  let ok = ref true in
  Array.iter
    (fun node ->
      let pristine = State.clone !st in
      List.iter
        (fun cluster ->
          if not (probe !st pristine ~node ~cluster ~ii ~target_ii ~weights)
          then ok := false)
        [ 0; 1; 2; 3; 4; 1000; -1 ];
      let start = Hca_util.Prng.int rng 4 in
      let rec try_from i =
        if i < 4 then
          match
            State.try_assign !st ~node
              ~cluster:((start + i) mod 4)
              ~ii ~target_ii ~weights
          with
          | Ok st' -> st := st'
          | Error _ -> try_from (i + 1)
      in
      try_from 0)
    order;
  (!ok, !st)

let no_probe _ _ ~node:_ ~cluster:_ ~ii:_ ~target_ii:_ ~weights:_ = true

(* The reference move, built only from public views: the
   [isAssignable] verdict, then the blocked [(value, src, dst)] arcs of
   routing preds then succs on a snapshot of the flow, and that flow. *)
let reference_move st ~node ~cluster ~ii =
  let p = State.problem st in
  let pg = Problem.pg p in
  if State.placement st node <> None then Error "node already assigned"
  else if
    cluster < 0
    || cluster >= Pattern_graph.size pg
    || not (Pattern_graph.is_regular pg cluster)
  then Error "target is not a regular cluster"
  else if
    not
      (Resource.fits
         ~demand:
           (Resource.add (State.demand st cluster)
              (Problem.node p node).Problem.demand)
         ~capacity:(Pattern_graph.node pg cluster).Pattern_graph.capacity
         ~ii)
  then Error "resource table exhausted under target II"
  else begin
    let flow = Copy_flow.snapshot (State.flow st) in
    let where id = if id = node then Some cluster else State.placement st id in
    let blocked = ref [] in
    let route (e : Problem.edge) ~src ~dst =
      match (src, dst) with
      | Some src, Some dst when src <> dst ->
          if Copy_flow.can_add flow ~src ~dst then
            Copy_flow.add_copy flow ~src ~dst e.Problem.value
          else blocked := (e.Problem.value, src, dst) :: !blocked
      | _ -> ()
    in
    List.iter
      (fun (e : Problem.edge) ->
        route e ~src:(where e.Problem.src) ~dst:(Some cluster))
      (Problem.preds p node);
    List.iter
      (fun (e : Problem.edge) ->
        route e ~src:(Some cluster) ~dst:(where e.Problem.dst))
      (Problem.succs p node);
    Ok (List.rev !blocked, flow)
  end

let bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let prop_incremental_cost_exact =
  QCheck.Test.make
    ~name:"State cost after random moves = recompute_cost, bit for bit"
    ~count:60
    QCheck.(pair (int_range 0 1000) (int_range 6 16))
    (fun (seed, size) ->
      let _, st = walk_with_probes ~seed ~size no_probe in
      let incremental = State.cost st in
      State.recompute_cost st ~target_ii:8 ~weights:Cost.default_weights;
      bits_equal incremental (State.cost st))

(* Every public move rewinds its input: [try_assign], a forced probe
   with its detours routed then aborted, and a [score_moves] batch —
   whose only lasting effect is the cost cache warmed at [target_ii],
   which [State.summary] warms on the pristine clone too. *)
let prop_moves_rewind =
  QCheck.Test.make ~name:"every move path rewinds its input bit for bit"
    ~count:40
    QCheck.(pair (int_range 0 1000) (int_range 6 16))
    (fun (seed, size) ->
      fst
        (walk_with_probes ~seed ~size
           (fun st pristine ~node ~cluster ~ii ~target_ii ~weights ->
             let same () = State.debug_identical st pristine in
             let scores = Array.make 1 nan in
             ignore
               (State.score_moves st ~node ~clusters:[| cluster |] ~ii
                  ~target_ii ~weights ~tail_of_region:2 ~scores
                 : int);
             ignore (State.summary pristine ~ii:target_ii : Cost.summary);
             let after_score = same () in
             ignore (State.try_assign st ~node ~cluster ~ii ~target_ii ~weights);
             let after_try = same () in
             (match State.probe_force st ~node ~cluster ~ii with
             | Error _ -> ()
             | Ok blocked ->
                 List.iter
                   (fun (value, src, dst) ->
                     ignore
                       (Router.route_value st ~value ~src ~dst ~ii ~max_hops:2
                         : bool))
                   blocked;
                 State.abort_force st);
             after_score && after_try && same ())))

let prop_speculative_cost_exact =
  QCheck.Test.make
    ~name:"speculative cost = clone-based try_assign cost, bit for bit"
    ~count:40
    QCheck.(pair (int_range 0 1000) (int_range 6 16))
    (fun (seed, size) ->
      fst
        (walk_with_probes ~seed ~size
           (fun st _pristine ~node ~cluster ~ii ~target_ii ~weights ->
             let scores = Array.make 1 nan in
             let feasible =
               State.score_moves st ~node ~clusters:[| cluster |] ~ii
                 ~target_ii ~weights ~tail_of_region:0 ~scores
             in
             match
               State.try_assign st ~node ~cluster ~ii ~target_ii ~weights
             with
             | Ok st' ->
                 let reference = State.clone st' in
                 State.recompute_cost reference ~target_ii ~weights;
                 feasible = 1
                 && bits_equal scores.(0) (State.cost st')
                 && bits_equal (State.cost st') (State.cost reference)
             | Error _ -> feasible = 0 && Float.is_nan scores.(0))))

(* The SEE's batched scorer against the reference move: a candidate
   scores iff the reference finds no blocked arc, its score is
   [try_assign]'s cost plus the region-tear penalty bit for bit, and
   [try_assign] fails with the reference's verdict — for a blocked move,
   its first blocked arc. *)
let prop_score_moves_exact =
  QCheck.Test.make
    ~name:"score_moves = blocked-arc reference + try_assign/penalise, bit for bit"
    ~count:40
    QCheck.(triple (int_range 0 1000) (int_range 6 16) (int_range 1 6))
    (fun (seed, size, tail_of_region) ->
      fst
        (walk_with_probes ~seed ~size
           (fun st _pristine ~node ~cluster:_ ~ii ~target_ii ~weights ->
             let clusters = [| 0; 1; 2; 3; 4; 1000; -1 |] in
             let scores = Array.make (Array.length clusters) nan in
             let feasible =
               State.score_moves st ~node ~clusters ~ii ~target_ii ~weights
                 ~tail_of_region ~scores
             in
             let expect_feasible = ref 0 in
             let ok = ref true in
             Array.iteri
               (fun k cluster ->
                 let verdict =
                   State.try_assign st ~node ~cluster ~ii ~target_ii ~weights
                 in
                 match (reference_move st ~node ~cluster ~ii, verdict) with
                 | Ok ([], _), Ok st' ->
                     incr expect_feasible;
                     let deficit =
                       tail_of_region - 1
                       - State.free_issue_slots st' ~cluster ~ii
                     in
                     if deficit > 0 then
                       State.add_penalty st'
                         (weights.Cost.w_tear *. float_of_int deficit);
                     if not (bits_equal scores.(k) (State.cost st')) then
                       ok := false
                 | Ok ((_, src, dst) :: _, _), Error e ->
                     if
                       e <> Printf.sprintf "no communication pattern %d->%d" src dst
                       || not (Float.is_nan scores.(k))
                     then ok := false
                 | Error e, Error e' ->
                     if e <> e' || not (Float.is_nan scores.(k)) then ok := false
                 | _ -> ok := false)
               clusters;
             !ok && feasible = !expect_feasible)))

(* The Route Allocator's forced move against the reference move: the
   same verdict and blocked triples; the committed copy carries the
   reference flow and its from-scratch cost, and — with nothing blocked
   — is identical to [try_assign]'s successor. *)
let prop_probe_force_exact =
  QCheck.Test.make
    ~name:"probe_force/commit/abort = blocked-arc reference + recompute_cost"
    ~count:40
    QCheck.(pair (int_range 0 1000) (int_range 6 16))
    (fun (seed, size) ->
      fst
        (walk_with_probes ~seed ~size
           (fun st pristine ~node ~cluster ~ii ~target_ii ~weights ->
             let reference = reference_move st ~node ~cluster ~ii in
             match (State.probe_force st ~node ~cluster ~ii, reference) with
             | Error e, Error e' -> e = e' && State.debug_identical st pristine
             | Ok blocked, Ok (blocked', flow') ->
                 let committed = State.commit_probe st ~target_ii ~weights in
                 State.abort_force st;
                 let rescored = State.clone committed in
                 State.recompute_cost rescored ~target_ii ~weights;
                 blocked = blocked'
                 && Copy_flow.equal (State.flow committed) flow'
                 && State.placement committed node = Some cluster
                 && bits_equal (State.cost committed) (State.cost rescored)
                 && State.debug_identical st pristine
                 && (blocked <> []
                    ||
                    match
                      State.try_assign st ~node ~cluster ~ii ~target_ii ~weights
                    with
                    | Ok st' -> State.debug_identical committed st'
                    | Error _ -> false)
             | Ok _, Error _ ->
                 State.abort_force st;
                 false
             | Error _, Ok _ -> false)))

(* The walks above only test the blocked-arc paths if some probes do
   block: pin that on fixed seeds. *)
let test_probes_block () =
  let probes = ref 0 and blocking = ref 0 in
  for seed = 0 to 19 do
    ignore
      (walk_with_probes ~seed ~size:12
         (fun st _ ~node ~cluster ~ii ~target_ii:_ ~weights:_ ->
           (match State.probe_force st ~node ~cluster ~ii with
           | Ok blocked ->
               incr probes;
               if blocked <> [] then incr blocking;
               State.abort_force st
           | Error _ -> ());
           true)
        : bool * State.t)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d probes blocked" !blocking !probes)
    true
    (!blocking > 0 && !blocking < !probes)

(* ------------------------------------------------------------------ *)
(* The SEE's beam                                                      *)
(* ------------------------------------------------------------------ *)

(* The SEE keeps no transposition table: children come from distinct
   (parent, cluster) pairs of an already distinct frontier, so the final
   beam of every subproblem the hierarchy solves holds pairwise
   different states.  Each kernel is checked on the deep reference
   fabric and on a small generated one with narrower MUXes; the
   comparison count keeps the property from passing vacuously. *)
let prop_beam_distinct =
  QCheck.Test.make ~name:"SEE final beam holds no two equal states" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let ddg = Hca_gen.Gen.ddg ~seed () in
      let pairs = ref 0 in
      let rec distinct = function
        | [] -> true
        | st :: rest ->
            pairs := !pairs + List.length rest;
            List.for_all (fun st' -> not (State.equal st st')) rest
            && distinct rest
      in
      let beams_distinct fabric =
        let report = Report.run fabric ddg in
        match report.Report.result with
        | None -> true
        | Some res ->
            List.for_all
              (fun sub ->
                match
                  See.solve ~target_ii:report.Report.ini_mii
                    (Record_problem.of_subresult res sub)
                    ~ii:report.Report.ii_used
                with
                | Error _ -> true
                | Ok o -> distinct (o.See.state :: o.See.alternatives))
              (Hierarchy.subresults res)
      in
      beams_distinct Dspfabric.reference
      && beams_distinct (Hca_gen.Gen.fabric ~seed ())
      && !pairs > 0)

(* Every SEE outcome names the IIs at which it comes back unchanged:
   solving again at the low end of its window, at most 8 above it and
   at a random II in between must give the very same states (every
   cache included), explored and routed counts.  Each subproblem the
   hierarchy solves is searched at a random II around the one the run
   used, so tight IIs — failed resource checks, positive tear deficits,
   full Affinity regions — come up as well as loose ones.  [stats]
   counts (windows checked, windows wider than one II). *)
let same_outcome (a : See.outcome) (b : See.outcome) =
  State.debug_identical a.See.state b.See.state
  && List.length a.See.alternatives = List.length b.See.alternatives
  && List.for_all2 State.debug_identical a.See.alternatives b.See.alternatives
  && a.See.explored = b.See.explored
  && a.See.routed = b.See.routed

let outcomes_hold_over_windows ?(stats = (ref 0, ref 0)) ~seed fabric ddg =
  let rng = Hca_util.Prng.create seed in
  let report = Report.run fabric ddg in
  (* Odd seeds search without the Affinity regions, whose full regions
     close many windows before a failed resource check can. *)
  let config =
    if seed mod 2 = 0 then Config.default
    else { Config.default with Config.priority = Config.Criticality }
  in
  match report.Report.result with
  | None -> true
  | Some res ->
      List.for_all
        (fun sub ->
          let problem = Record_problem.of_subresult res sub in
          let solve ii =
            See.solve ~config ~target_ii:report.Report.ini_mii problem ~ii
          in
          let ii =
            max 1 ((report.Report.ii_used * 3 / 4) + Hca_util.Prng.int rng 6)
          in
          match solve ii with
          | Error _ -> true
          | Ok o ->
              let lo, hi = o.See.window in
              let top = min hi (lo + 8) in
              incr (fst stats);
              if hi > lo then incr (snd stats);
              lo <= ii && ii <= hi
              && List.for_all
                   (fun ii' ->
                     match solve ii' with
                     | Ok o' -> same_outcome o o'
                     | Error _ -> false)
                   [ lo; top; lo + Hca_util.Prng.int rng (top - lo + 1) ])
        (Hierarchy.subresults res)

(* Kernels past the default 24 instructions, on the reference fabric
   and on heterogeneous machines: smaller ones rarely fill a cluster
   enough for a tear deficit.  Two seeds in 100,001 draw a machine with
   no address generator at all, on which [Report.run] maps no kernel
   with AG ops: the property holds there with nothing to check. *)
let windows_hold ?stats seed =
  let ddg =
    Hca_gen.Gen.ddg
      ~knobs:{ Hca_gen.Gen.default_ddg_knobs with min_size = 20; max_size = 60 }
      ~seed ()
  in
  let hetero = Hca_gen.Gen.desc ~hetero:0.3 ~seed () in
  outcomes_hold_over_windows ?stats ~seed Dspfabric.reference ddg
  && outcomes_hold_over_windows ?stats ~seed hetero ddg

let prop_outcome_window =
  QCheck.Test.make ~name:"SEE outcome is the same at every II of its window"
    ~count:80
    QCheck.(int_range 0 100_000)
    windows_hold

(* The property above is vacuous if every window is a single II, and
   misses the narrowings if none is. *)
let test_windows_not_vacuous () =
  let (checked, wide) as stats = (ref 0, ref 0) in
  for seed = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "seed %d holds" seed)
      true (windows_hold ~stats seed)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d windows wider than one II" !wide !checked)
    true
    (!wide > 0 && !wide < !checked)

(* ------------------------------------------------------------------ *)
(* Parallel drivers reproduce their sequential runs                    *)
(* ------------------------------------------------------------------ *)

let quality_fields (r : Report.t) =
  ( (r.Report.legal, r.Report.final_mii, r.Report.ii_used, r.Report.copies),
    ( r.Report.forwards,
      r.Report.max_wire_load,
      r.Report.explored_states,
      r.Report.routed_moves ) )

(* The memo counters are part of the jobs-invariance contract too:
   they sum over the attempts made, which are the same at every
   [jobs]. *)
let report_fields (r : Report.t) =
  ( quality_fields r,
    (r.Report.cache_hits, r.Report.cache_misses, r.Report.reused_subproblems)
  )

let test_portfolio_jobs_invariant () =
  let fabric = Dspfabric.reference in
  List.iter
    (fun (name, f) ->
      let ddg = f () in
      let seq = Portfolio.run_all ~jobs:1 fabric ddg in
      let par = Portfolio.run_all ~jobs:4 fabric ddg in
      List.iter2
        (fun (cfg1, r1) (cfg4, r4) ->
          Alcotest.(check string)
            (name ^ ": config order") cfg1 cfg4;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: identical report" name cfg1)
            true
            (report_fields r1 = report_fields r4))
        seq par;
      let _, winner1 = Portfolio.best_of seq in
      let _, winner4 = Portfolio.best_of par in
      Alcotest.(check string) (name ^ ": same winner") winner1 winner4)
    Hca_kernels.Registry.all

(* Every registry kernel, including the long climbs of h264deblocking,
   sad16 and fft_stage: the climb is sequential at every [jobs] and
   only the patience window runs on the pool. *)
let test_report_jobs_invariant () =
  let fabric = Dspfabric.reference in
  let fingerprint (r : Report.t) =
    ( Report.invariant_string r,
      (r.Report.cache_hits, r.Report.cache_misses, r.Report.reused_subproblems)
    )
  in
  List.iter
    (fun (name, f) ->
      let ddg = f () in
      let seq = fingerprint (Report.run ~jobs:1 fabric ddg) in
      List.iter
        (fun jobs ->
          Alcotest.(check (pair string (triple int int int)))
            (Printf.sprintf "%s: Report.run jobs=%d = jobs=1" name jobs)
            seq
            (fingerprint (Report.run ~jobs fabric ddg)))
        [ 2; 4 ])
    Hca_kernels.Registry.extended

let test_memo_invariant () =
  let fabric = Dspfabric.reference in
  List.iter
    (fun (name, f) ->
      let ddg = f () in
      let on = Report.run ~memo:true fabric ddg in
      let off = Report.run ~memo:false fabric ddg in
      Alcotest.(check bool)
        (name ^ ": memo on = memo off")
        true
        (quality_fields on = quality_fields off);
      Alcotest.(check bool)
        (name ^ ": memo off counts nothing")
        true
        ((off.Report.cache_hits, off.Report.cache_misses,
          off.Report.reused_subproblems)
        = (0, 0, 0)))
    Hca_kernels.Registry.all

(* The reference fabric has no illegal rows, so the two tests above
   never meet a long climb.  Two [dse_sweep] points do: r20 holds five
   illegal evaluations that climb 37-49 IIs each, and r21 sad16's
   39-probe climb.  Every result, error text included, and the memo
   counters must not depend on [jobs]; memo off must give the same
   result and count nothing. *)
let test_dse_climbs_invariant () =
  let points =
    List.filter
      (fun (p : Hca_gen.Dse.point) -> List.mem p.Hca_gen.Dse.pname [ "r20"; "r21" ])
      (Hca_gen.Dse.random_points ~hetero:0.3 ~count:5 ~seed:19 ())
  in
  Alcotest.(check int) "points" 2 (List.length points);
  let counters (r : Report.t) =
    (r.Report.cache_hits, r.Report.cache_misses, r.Report.reused_subproblems)
  in
  List.iter
    (fun (p : Hca_gen.Dse.point) ->
      List.iter
        (fun kernel ->
          let ddg = (Option.get (Hca_kernels.Registry.find kernel)) () in
          let run ~jobs ~memo = Report.run ~jobs ~memo p.Hca_gen.Dse.desc ddg in
          let base = run ~jobs:1 ~memo:true in
          let label what = Printf.sprintf "%s/%s: %s" p.Hca_gen.Dse.pname kernel what in
          List.iter
            (fun (what, r) ->
              Alcotest.(check string) (label what) (Report.invariant_string base)
                (Report.invariant_string r);
              Alcotest.(check (triple int int int))
                (label (what ^ " memo counters"))
                (if r.Report.memo_enabled then counters base else (0, 0, 0))
                (counters r))
            [
              ("jobs=2", run ~jobs:2 ~memo:true);
              ("memo off", run ~jobs:1 ~memo:false);
              ("jobs=2 memo off", run ~jobs:2 ~memo:false);
            ])
        [ "fir2dim"; "idcthor"; "mpeg2inter"; "fft_stage"; "sad16"; "rgb2ycc" ])
    points

let () =
  Alcotest.run "parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "order preserved" `Quick test_pool_order;
          Alcotest.test_case "empty/singleton" `Quick test_pool_empty_and_single;
          Alcotest.test_case "first error wins" `Quick test_pool_first_error_wins;
          Alcotest.test_case "pool reusable" `Quick test_pool_reusable;
        ] );
      ("topk", [ QCheck_alcotest.to_alcotest prop_topk_matches_sorted_prefix ]);
      ( "incremental_cost",
        [ QCheck_alcotest.to_alcotest prop_incremental_cost_exact ] );
      ( "speculation",
        [
          QCheck_alcotest.to_alcotest prop_moves_rewind;
          QCheck_alcotest.to_alcotest prop_speculative_cost_exact;
          QCheck_alcotest.to_alcotest prop_score_moves_exact;
          QCheck_alcotest.to_alcotest prop_probe_force_exact;
          Alcotest.test_case "fixed seeds: some probes block" `Quick
            test_probes_block;
        ] );
      ( "see",
        [
          QCheck_alcotest.to_alcotest prop_beam_distinct;
          QCheck_alcotest.to_alcotest prop_outcome_window;
          Alcotest.test_case "fixed seeds: some windows are wide" `Quick
            test_windows_not_vacuous;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "report jobs invariant" `Quick
            test_report_jobs_invariant;
          Alcotest.test_case "memo on/off invariant" `Slow test_memo_invariant;
          Alcotest.test_case "dse climbs: jobs and memo invariant" `Slow
            test_dse_climbs_invariant;
          Alcotest.test_case "portfolio jobs invariant" `Slow
            test_portfolio_jobs_invariant;
        ] );
    ]
