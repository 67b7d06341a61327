(* The workloads that call the libraries in this process:
   compile_suite, dse_sweep and oracle_certify.  Each runs a fixed input
   set; the seed draws the order of every round, so runs at different
   seeds do the same work and their timings compare directly. *)

open Hca_core
module Json = Hca_serve.Json
module Dspfabric = Hca_machine.Dspfabric
module Ddg = Hca_ddg.Ddg
module Gen = Hca_gen.Gen
module Dse = Hca_gen.Dse
module Oracle = Hca_exact.Oracle

let now = Run.now

let kernel name =
  match Hca_kernels.Registry.find name with
  | Some f -> f ()
  | None -> invalid_arg ("unknown kernel " ^ name)

(* Enough ops for a p90 backed by ten samples; a traced run's untraced
   half only needs half as many, and its traced half one round. *)
let min_ops cfg = if cfg.Run.smoke then 1 else if cfg.trace then 50 else 100

(* What the workloads need to know about their inputs and outputs. *)
type ('i, 'o) spec = {
  inputs : 'i array;
  name : 'i -> string;
  invariant : 'o -> string;  (** must repeat exactly across the ops of one input *)
  check : 'i -> 'o -> Check.verdict;
  report : 'o -> Report.t;  (** the HCA report of the op, for quality and rows *)
  alloc_mb : 'o -> float;
  lines : 'i -> 'o -> string * string;  (** submit and reply line a served client would exchange *)
  extra_layers : 'o array -> (string * float) list;  (** from the first output of each input *)
}

(* What the measurement loop observed, before any check ran. *)
type 'o observed = {
  firsts : 'o array;  (** the first output of each input *)
  mismatches : int;  (** later ops whose output differed from the first *)
  measured : Run.phase;
  traced : Run.phase option;
  gc : int * int;  (** minor and major collections during [measured] *)
  peak_rss_mb : float;
  step_failures : int;  (** ops failed by a check of a whole step *)
}

(* Remembers the first output of each input and counts later ops that
   disagree with it; [record] returns the op's sample. *)
let recorder spec =
  let first = Array.make (Array.length spec.inputs) None and mismatches = ref 0 in
  let record i ~ms out =
    (match first.(i) with
    | None -> first.(i) <- Some out
    | Some o -> if spec.invariant o <> spec.invariant out then incr mismatches);
    { Run.key = i; ms; mb = spec.alloc_mb out }
  in
  let finish () = (Array.map Option.get first, !mismatches) in
  (record, finish)

(* Untraced phase, then (with [--trace 1]) a traced one over the same
   rounds, or over [traced_round]. *)
let measure cfg ~setup ~layers ?(traced_round = Fun.id) round =
  let seconds = Run.phase_seconds cfg in
  let gc0 = Run.gc_counts () in
  let measured = Run.rounds ~seconds ~min_ops:(min_ops cfg) ~between:(fun () -> Run.time_setup setup) round in
  let gc1 = Run.gc_counts () in
  let traced =
    if cfg.Run.trace then Some (Run.rounds ~seconds ~min_ops:1 ~layers (traced_round round))
    else None
  in
  (measured, traced, (fst gc1 - fst gc0, snd gc1 - snd gc0))

let listed verdicts spec pick =
  Json.Arr
    (List.concat
       (List.mapi
          (fun i v ->
            match pick v with
            | Some why -> [ Json.Str (spec.name spec.inputs.(i) ^ ": " ^ why) ]
            | None -> [])
          (Array.to_list verdicts)))

let summarize ~workload ~timing cfg ~(setup : Run.setup) spec obs =
  let phases = obs.measured :: Option.to_list obs.traced in
  let verdicts = Array.mapi (fun i o -> Check.guard (fun () -> spec.check spec.inputs.(i) o)) obs.firsts in
  let failed_key k = match verdicts.(k) with Check.Fail _ -> true | _ -> false in
  let samples_of i =
    List.concat_map
      (fun p -> List.filter_map (fun (s : Run.sample) -> if s.key = i then Some s.ms else None) (Run.samples p))
      phases
  in
  let reports = Array.map spec.report obs.firsts in
  let n = float_of_int (Array.length reports) in
  let ops = float_of_int (Run.ops obs.measured) in
  let layers =
    if not cfg.Run.trace then []
    else
      let requests, replies =
        List.split (Array.to_list (Array.mapi (fun i o -> spec.lines spec.inputs.(i) o) obs.firsts))
      in
      let mean f = Array.fold_left (fun acc r -> acc +. float_of_int (f r)) 0. reports /. n in
      [
        ("gc.alloc_mb_per_op", List.fold_left (fun acc (s : Run.sample) -> acc +. s.mb) 0. (Run.samples obs.measured) /. ops);
        ("gc.minor_per_op", float_of_int (fst obs.gc) /. ops);
        ("gc.major_per_op", float_of_int (snd obs.gc) /. ops);
        ("see.explored_states_per_op", mean (fun r -> r.Report.explored_states));
        ("router.routed_moves_per_op", mean (fun r -> r.Report.routed_moves));
      ]
      @ Proto.replay ~requests ~replies
      @ spec.extra_layers obs.firsts
  in
  {
    Run.timing;
    setup_s = Array.of_list setup.samples_s;
    measured = obs.measured;
    traced = obs.traced;
    peak_rss_mb = obs.peak_rss_mb;
    mii_sum = Array.fold_left (fun acc r -> acc + Check.mii r) 0 reports;
    copies_sum = Array.fold_left (fun acc r -> acc + r.Report.copies) 0 reports;
    attempted = List.fold_left (fun acc p -> acc + Run.ops p) 0 phases;
    failed =
      obs.mismatches + obs.step_failures
      + List.fold_left
          (fun acc p -> acc + List.length (List.filter (fun (s : Run.sample) -> failed_key s.key) (Run.samples p)))
          0 phases;
    digest = Check.digest (Array.to_list (Array.map spec.invariant obs.firsts));
    rows =
      Array.to_list
        (Array.mapi
           (fun i r ->
             let ms = samples_of i in
             Emit.input_row ~workload ~input:(spec.name spec.inputs.(i))
               ~median_ms:(Stats.median (Array.of_list ms))
               ~fastest_ms:(List.fold_left Float.min infinity ms)
               ~samples:(List.length ms) ~legal:r.Report.legal ~mii:(Check.mii r) ~copies:r.Report.copies)
           reports);
    notes =
      [
        ("skipped_checks", listed verdicts spec (function Check.Skip why -> Some why | _ -> None));
        ("failed_checks", listed verdicts spec (function Check.Fail why -> Some why | _ -> None));
        ("mismatched_repeats", Json.Num (float_of_int obs.mismatches));
      ];
    layers;
  }

(* One op per input, timed from outside. *)
let run_ops ~workload cfg ~setup spec op =
  let record, finish = recorder spec in
  let step i () =
    let t0 = now () in
    let out = op spec.inputs.(i) in
    [ record i ~ms:((now () -. t0) *. 1000.) out ]
  in
  let shuffle = Run.shuffler cfg.Run.seed in
  let layers = Layers.create () in
  let measured, traced, gc =
    measure cfg ~setup ~layers (fun () -> List.map step (shuffle (Array.length spec.inputs)))
  in
  let peak_rss_mb = Run.vm_hwm_mb "self" in
  let firsts, mismatches = finish () in
  ( summarize ~workload ~timing:Run.Sequential cfg ~setup spec
      { firsts; mismatches; measured; traced; gc; peak_rss_mb; step_failures = 0 },
    layers )

let report_spec fabric inputs =
  {
    inputs;
    name = Ddg.name;
    invariant = Report.invariant_string;
    check = (fun ddg r -> Check.report fabric ddg r);
    report = Fun.id;
    alloc_mb = (fun r -> r.Report.alloc_mb);
    lines = (fun ddg r -> (Proto.submit_line fabric ddg, Proto.reply_line r));
    extra_layers = (fun _ -> []);
  }

(* ------------------------------------------------------------------ *)
(* compile_suite                                                       *)

(* The registry's ten kernels plus ten generated ones in the 40-120
   instruction band, at fixed generator seeds so that every run maps
   the same twenty kernels. *)
let compile_inputs ~smoke =
  let gen seed =
    Gen.ddg ~knobs:{ Gen.default_ddg_knobs with min_size = 40; max_size = 120 } ~seed ()
  in
  if smoke then [| kernel "autocorr"; gen 14 |]
  else Array.of_list (List.map (fun (_, f) -> f ()) Hca_kernels.Registry.extended @ List.init 10 gen)

let compile_suite cfg =
  let fabric = Dspfabric.reference in
  let inputs = ref [||] in
  let setup =
    Run.setup cfg (fun () ->
        inputs := compile_inputs ~smoke:cfg.Run.smoke;
        ignore (Report.run ~jobs:1 fabric !inputs.(0)))
  in
  run_ops ~workload:"compile_suite" cfg ~setup (report_spec fabric !inputs) (Report.run ~jobs:1 fabric)

(* ------------------------------------------------------------------ *)
(* dse_sweep                                                           *)

let dse_kernels = [ "fir2dim"; "idcthor"; "mpeg2inter"; "fft_stage"; "sad16"; "rgb2ycc" ]

(* Five seeded random machines of 4 to 16 CNs, some heterogeneous,
   chosen so that a sweep takes a few seconds on two cores and a third
   of the evaluations come out illegal, the II-escalation path. *)
let dse_setup ~smoke =
  let points =
    if smoke then Dse.random_points ~hetero:0.3 ~count:1 ~seed:8 ()
    else Dse.random_points ~hetero:0.3 ~count:5 ~seed:19 ()
  in
  let kernels =
    List.map (fun k -> (k, kernel k)) (if smoke then [ "fir2dim"; "rgb2ycc" ] else dse_kernels)
  in
  (points, kernels)

let dse_sweep cfg =
  let built = ref ([], []) in
  let setup =
    Run.setup cfg (fun () ->
        built := dse_setup ~smoke:cfg.Run.smoke;
        match !built with
        | p :: _, (_, ddg) :: _ -> ignore (Report.run ~jobs:1 p.Dse.desc ddg)
        | _ -> assert false)
  in
  let points, kernels = !built in
  let inputs =
    Array.of_list
      (List.concat_map (fun (p : Dse.point) -> List.map (fun (k, ddg) -> (p, k, ddg)) kernels) points)
  in
  let key_of = Hashtbl.create 64 in
  Array.iteri (fun i ((p : Dse.point), k, _) -> Hashtbl.replace key_of (p.pname, k) i) inputs;
  let spec =
    {
      inputs;
      name = (fun ((p : Dse.point), k, _) -> p.pname ^ "/" ^ k);
      invariant = Report.invariant_string;
      check = (fun ((p : Dse.point), _, ddg) r -> Check.report p.desc ddg r);
      report = Fun.id;
      alloc_mb = (fun r -> r.Report.alloc_mb);
      lines = (fun ((p : Dse.point), _, ddg) r -> (Proto.submit_line p.desc ddg, Proto.reply_line r));
      extra_layers =
        (fun rs ->
          let illegal = Array.fold_left (fun acc r -> if r.Report.legal then acc else acc + 1) 0 rs in
          [ ("dse.illegal_frac", float_of_int illegal /. float_of_int (Array.length rs)) ]);
    }
  in
  let record, finish = recorder spec in
  let shuffle = Run.shuffler cfg.Run.seed in
  let permuted l = List.map (List.nth l) (shuffle (List.length l)) in
  let sweep_failures = ref 0 in
  (* One step is one whole sweep on two domains; its evaluations are the
     ops, timed by the reports themselves. *)
  let sweep () =
    let res = Dse.run ~jobs:2 ~kernels:(permuted kernels) (permuted points) in
    (match Dse.check res with Ok () -> () | Error _ -> sweep_failures := !sweep_failures + List.length res.evals);
    List.map
      (fun (e : Dse.eval) ->
        record (Hashtbl.find key_of (e.point, e.kernel)) ~ms:(e.report.runtime_s *. 1000.) e.report)
      res.evals
  in
  (* Traced, a whole sweep would hold millions of events at once; its
     evaluations run one by one instead, exactly as the sweep runs
     each of them. *)
  let one_by_one _ () =
    List.map
      (fun i () ->
        let p, _, ddg = inputs.(i) in
        let r = Report.run ~jobs:1 p.Dse.desc ddg in
        [ record i ~ms:(r.runtime_s *. 1000.) r ])
      (shuffle (Array.length inputs))
  in
  let layers = Layers.create () in
  let measured, traced, gc = measure cfg ~setup ~layers ~traced_round:one_by_one (fun () -> [ sweep ]) in
  let peak_rss_mb = Run.vm_hwm_mb "self" in
  let firsts, mismatches = finish () in
  let run =
    summarize ~workload:"dse_sweep" ~timing:Run.Parallel cfg ~setup spec
      { firsts; mismatches; measured; traced; gc; peak_rss_mb; step_failures = !sweep_failures }
  in
  (* Busy time of the evaluations over what two domains could give in
     the sweeps' wall time. *)
  let busy_s = List.fold_left (fun acc (s : Run.sample) -> acc +. (s.ms /. 1000.)) 0. (Run.samples measured) in
  let efficiency = ("pool.parallel_efficiency", busy_s /. (2. *. measured.wall_s)) in
  ({ run with layers = (if cfg.trace then efficiency :: run.layers else run.layers) }, layers)

(* ------------------------------------------------------------------ *)
(* oracle_certify                                                      *)

(* Forty instances make a round of about four seconds, so that each
   input is costed by the fastest of several verdicts. *)
let oracle_instances ~smoke = Array.init (if smoke then 3 else 40) (fun seed -> Gen.instance ~seed ())

(* The [hca exact] verdict: the heuristic's legal MII seeds the
   oracle's downward walk, and a conflict budget instead of a clock
   makes the verdict a pure function of the instance. *)
let verdict (inst : Gen.instance) =
  let r = Report.run ~jobs:1 inst.fabric inst.ddg in
  let incumbent = if r.legal then r.final_mii else None in
  (r, Oracle.run ~budget_s:infinity ~max_conflicts:8000 ?incumbent inst.fabric inst.ddg)

let verdict_string (r, (o : Oracle.t)) =
  Printf.sprintf "%s|%s lb=%d mii=%s" (Report.invariant_string r) (Oracle.status_to_string o.status)
    o.lower_bound
    (match o.final_mii with Some m -> string_of_int m | None -> "-")

let oracle_certify cfg =
  let inputs = ref [||] in
  let setup =
    Run.setup cfg (fun () ->
        inputs := oracle_instances ~smoke:cfg.Run.smoke;
        ignore (verdict !inputs.(0)))
  in
  let spec =
    {
      inputs = !inputs;
      name = (fun (i : Gen.instance) -> Printf.sprintf "instance-%d" i.seed);
      invariant = verdict_string;
      check =
        (fun _ ((r : Report.t), (o : Oracle.t)) ->
          match (o.status, r.final_mii) with
          | Oracle.Unsat, _ -> Check.Fail "oracle refuted the whole range"
          | _, Some m when r.legal && o.lower_bound > m ->
              Check.Fail (Printf.sprintf "certified lower bound %d exceeds the heuristic's MII %d" o.lower_bound m)
          | _ -> Check.Pass);
      report = fst;
      alloc_mb = (fun ((r : Report.t), (o : Oracle.t)) -> r.alloc_mb +. o.alloc_mb);
      lines = (fun (i : Gen.instance) (r, _) -> (Proto.submit_line i.fabric i.ddg, Proto.reply_line r));
      extra_layers =
        (fun outs ->
          let decided =
            Array.fold_left (fun acc (_, (o : Oracle.t)) -> if o.status = Oracle.Optimal then acc + 1 else acc) 0 outs
          in
          [ ("oracle.decided_frac", float_of_int decided /. float_of_int (Array.length outs)) ]);
    }
  in
  run_ops ~workload:"oracle_certify" cfg ~setup spec verdict
