(* hcabench: the repository benchmark.

     hcabench run <workload> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
     hcabench --workload <workload> --seed N --seconds S --trace 0|1

   Runs one workload in this process, checks its outputs, and prints
   per-input rows, one detail line and, last, the result object with
   every end-to-end metric (untraced) or every per-layer metric
   (--trace).  See perf/README.md. *)

let workloads =
  [
    ("compile_suite", Inproc.compile_suite);
    ("dse_sweep", Inproc.dse_sweep);
    ("serve_cold", fun cfg -> (Serve_load.serve_cold cfg, Layers.create ()));
    ("serve_warm", fun cfg -> (Serve_load.serve_warm cfg, Layers.create ()));
    ("oracle_certify", Inproc.oracle_certify);
  ]

let () = assert (List.map fst workloads = Decl.workloads)

let usage () =
  Printf.eprintf
    "usage: hcabench run <workload> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]\n\
    \       hcabench --workload <workload> --seed N --seconds S --trace 0|1\n\
     workloads: %s\n"
    (String.concat ", " (List.map fst workloads));
  exit 2

let parse argv =
  let workload = ref None and seed = ref 0 and seconds = ref 10 and trace = ref false and smoke = ref false in
  let int_arg ?(min = min_int) flag v =
    match int_of_string_opt v with
    | Some n when n >= min -> n
    | _ ->
        Printf.eprintf "hcabench: %s wants a whole number, not '%s'\n" flag v;
        usage ()
  in
  let rec go = function
    | [] -> ()
    | ("run" | "--workload") :: w :: rest when !workload = None ->
        workload := Some w;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_arg "--seed" v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := int_arg ~min:0 "--seconds" v;
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := v = "1";
        go rest
    | "--trace" :: rest ->
        trace := true;
        go rest
    | "--smoke" :: rest ->
        smoke := true;
        go rest
    | arg :: _ ->
        Printf.eprintf "hcabench: unexpected argument '%s'\n" arg;
        usage ()
  in
  go (List.tl (Array.to_list argv));
  match !workload with
  | Some w when List.mem_assoc w workloads ->
      (w, { Run.seed = !seed; seconds = float_of_int !seconds; trace = !trace; smoke = !smoke; work_dir = "" })
  | Some w ->
      Printf.eprintf "hcabench: unknown workload '%s'\n" w;
      usage ()
  | None -> usage ()

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A smoke run is too short for the percentile rule; it reports the
   nearest-rank value anyway, since only its shape is checked. *)
let ms_percentile ~smoke xs p =
  match Stats.percentile xs p with
  | Ok r -> r.value
  | Error r when smoke -> r.value
  | Error r -> failwith (Printf.sprintf "p%g refused: %d of %d samples beyond it" p r.beyond r.samples)

let end_to_end ~smoke (r : Run.t) =
  let percentile p = Run.median_over_groups r.timing r.measured (fun ms -> ms_percentile ~smoke ms p) in
  [
    ("setup_s", Stats.median r.setup_s);
    ("ops_per_s", Run.ops_per_s r.timing r.measured);
    ("op_geomean_ms", Run.geomean_ms r.timing r.measured);
    ("latency_p50_ms", percentile 50.);
    ("latency_p90_ms", percentile 90.);
    ("peak_rss_mb", r.peak_rss_mb);
    ("mii_sum", float_of_int r.mii_sum);
    ("copies_sum", float_of_int r.copies_sum);
  ]

(* The highest of p99, p90 and p50 that the percentile rule allows. *)
let latency_tail ms =
  Option.value ~default:(Stats.median ms, 50.)
    (List.find_map
       (fun p -> match Stats.percentile ms p with Ok r -> Some (r.value, p) | Error _ -> None)
       [ 99.; 90.; 50. ])

(* Traced over untraced throughput.  In-process ops are compared by
   their costs, since a traced dse_sweep runs its evaluations one at a
   time rather than on the pool. *)
let overhead_ratio (r : Run.t) traced =
  let timing = if r.timing = Run.Served then Run.Served else Run.Sequential in
  Run.ops_per_s timing traced /. Run.ops_per_s timing r.measured

let per_layer (r : Run.t) layers =
  let traced = Option.get r.traced in
  let ms = Array.concat (Run.groups r.timing r.measured) in
  let tail, pct = latency_tail ms in
  let op_s = Layers.get layers.Layers.total_s "hcabench.op" in
  let explored = Option.value ~default:0. (List.assoc_opt "see.explored_states_per_op" r.layers) in
  let generic =
    Layers.span_metrics layers ~ops:(Run.ops traced)
    @ [
        ("see.states_per_s", Layers.ratio (explored *. float_of_int (Run.ops traced)) (Layers.see_self_s layers));
        ("client.latency_tail_ms", tail);
        ("client.latency_tail_pct", pct);
        ("client.samples", float_of_int (Array.length ms));
        ("trace.overhead_ratio", overhead_ratio r traced);
        ("trace.unattributed_frac", Float.max 0. (1. -. (op_s /. traced.wall_s)));
      ]
  in
  (* Workload-specific values win; a layer a workload never enters
     reads 0. *)
  List.map
    (fun (m : Decl.metric) ->
      match List.assoc_opt m.name r.layers with
      | Some v -> (m.name, v)
      | None -> (m.name, Option.value ~default:0. (List.assoc_opt m.name generic)))
    Decl.per_layer

let () =
  let workload, cfg = parse Sys.argv in
  let root = ".hcabench" in
  let work_dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  Sys.mkdir work_dir 0o755;
  let cfg = { cfg with work_dir; seconds = (if cfg.smoke then 0. else cfg.seconds) } in
  let r, layers =
    Fun.protect
      ~finally:(fun () ->
        Serve_load.kill_all ();
        remove_tree work_dir;
        try Sys.rmdir root with Sys_error _ -> ())
      (fun () -> (List.assoc workload workloads) cfg)
  in
  let metrics = if cfg.trace then per_layer r layers else end_to_end ~smoke:cfg.smoke r in
  List.iter print_endline r.rows;
  print_endline
    (Emit.detail_line
       ([
          ("workload", Hca_serve.Json.Str workload);
          ("seed", Hca_serve.Json.Num (float_of_int cfg.seed));
          ("outputs_digest", Hca_serve.Json.Str r.digest);
          ("ops", Hca_serve.Json.Num (float_of_int (Run.ops r.measured)));
        ]
       @ r.notes));
  let correct = r.failed = 0 in
  match Emit.result_line ~trace:cfg.trace ~correct ~attempted:r.attempted ~failed:r.failed metrics with
  | Ok line ->
      print_endline line;
      if cfg.smoke && not correct then exit 1
  | Error e ->
      prerr_endline ("hcabench: " ^ e);
      exit 1
