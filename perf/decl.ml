module Json = Hca_serve.Json

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float option }

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }

let layer name unit_ better = { name; unit_; better; bound = None }

let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "ops_per_s" "1/s" Higher 0.25;
    e2e "op_geomean_ms" "ms" Lower 0.25;
    e2e "latency_p50_ms" "ms" Lower 0.25;
    e2e "latency_p90_ms" "ms" Lower 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.25;
    e2e "mii_sum" "cycles" Lower 0.001;
    e2e "copies_sum" "copies" Lower 0.001;
  ]

let per_layer =
  [
    layer "report.self_share" "ratio" Lower;
    layer "report.probes_per_op" "count" Lower;
    layer "hierarchy.self_share" "ratio" Lower;
    layer "hierarchy.subproblems_per_op" "count" Lower;
    layer "hierarchy.memo_hits_per_op" "count" Higher;
    layer "hierarchy.memo_misses_per_op" "count" Lower;
    layer "hierarchy.memo_hit_ratio" "ratio" Higher;
    layer "see.self_share" "ratio" Lower;
    layer "see.calls_per_op" "count" Lower;
    layer "see.explored_states_per_op" "count" Lower;
    layer "see.states_per_s" "1/s" Higher;
    layer "state.spec_applies_per_op" "count" Lower;
    layer "state.spec_reject_ratio" "ratio" Lower;
    layer "router.self_share" "ratio" Lower;
    layer "router.attempts_per_op" "count" Lower;
    layer "router.routed_moves_per_op" "count" Lower;
    layer "mapper.self_share" "ratio" Lower;
    layer "mapper.calls_per_op" "count" Lower;
    layer "gc.alloc_mb_per_op" "MB" Lower;
    layer "gc.minor_per_op" "count" Lower;
    layer "gc.major_per_op" "count" Lower;
    layer "oracle.self_share" "ratio" Lower;
    layer "oracle.probes_per_op" "count" Lower;
    layer "oracle.decided_frac" "ratio" Higher;
    layer "sat.conflicts_per_op" "count" Lower;
    layer "sat.propagations_per_op" "count" Lower;
    layer "sat.props_per_s" "1/s" Higher;
    layer "sat.reused_hits_per_op" "count" Higher;
    layer "pool.parallel_efficiency" "ratio" Higher;
    layer "dse.illegal_frac" "ratio" Lower;
    layer "jobq.wait_share" "ratio" Lower;
    layer "daemon.run_share" "ratio" Lower;
    layer "client.latency_tail_ms" "ms" Lower;
    layer "client.latency_tail_pct" "%" Higher;
    layer "client.samples" "count" Higher;
    layer "protocol.parse_us" "us" Lower;
    layer "json.reply_parse_us" "us" Lower;
    layer "json.reply_encode_us" "us" Lower;
    layer "store.load_mb_per_s" "MB/s" Higher;
    layer "store.save_mb_per_s" "MB/s" Higher;
    layer "store.flush_mb_per_s" "MB/s" Higher;
    layer "store.entries" "count" Lower;
    layer "store.file_mb" "MB" Lower;
    layer "trace.overhead_ratio" "ratio" Higher;
    layer "trace.unattributed_frac" "ratio" Lower;
  ]

let workloads = [ "compile_suite"; "dse_sweep"; "serve_cold"; "serve_warm"; "oracle_certify" ]

let printed ~trace = if trace then per_layer else end_to_end

let valid_name s =
  let ok c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  s <> "" && String.length s <= 64 && String.for_all ok s

let better_to_string = function Lower -> "lower" | Higher -> "higher"

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json against the tables above                             *)

let keys = function Json.Obj l -> List.map fst l | _ -> []

let check_list ~section ~with_bound declared json =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let entries = match Json.member section json with Some (Json.Arr l) -> l | _ -> [] in
  if entries = [] then err "%s: missing or empty" section;
  let names = List.filter_map (fun e -> Option.bind (Json.member "name" e) Json.str) entries in
  List.iter
    (fun e ->
      let expected = if with_bound then [ "name"; "unit"; "better"; "bound" ] else [ "name"; "unit"; "better" ] in
      if List.sort compare (keys e) <> List.sort compare expected then
        err "%s: an entry has keys [%s], want [%s]" section
          (String.concat "," (keys e)) (String.concat "," expected);
      let str k = Option.bind (Json.member k e) Json.str in
      match str "name" with
      | None -> err "%s: an entry has no name" section
      | Some name -> (
          if not (valid_name name) then err "%s: bad metric name '%s'" section name;
          match List.find_opt (fun m -> m.name = name) declared with
          | None -> err "%s: %s is declared but the benchmark never prints it" section name
          | Some m ->
              if str "unit" <> Some m.unit_ then err "%s: unit differs from the code's '%s'" name m.unit_;
              if str "better" <> Some (better_to_string m.better) then
                err "%s: better differs from the code's '%s'" name (better_to_string m.better);
              if with_bound then
                match (Option.bind (Json.member "bound" e) Json.num, m.bound) with
                | Some b, Some b' when b = b' && b >= 0. && b <= 0.25 -> ()
                | _ -> err "%s: bound must equal the code's and lie in [0, 0.25]" name))
    entries;
  List.iter
    (fun m -> if not (List.mem m.name names) then err "%s: %s is printed but not declared" section m.name)
    declared;
  if List.length (List.sort_uniq compare names) <> List.length names then
    err "%s: duplicate names" section;
  List.rev !errs

let check_benchmark_json json =
  let top = List.sort compare (keys json) in
  let want =
    List.sort compare [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
  in
  let workload_names =
    match Json.member "workloads" json with
    | Some (Json.Arr l) -> List.filter_map (fun w -> Option.bind (Json.member "name" w) Json.str) l
    | _ -> []
  in
  (if top <> want then [ Printf.sprintf "top-level keys [%s]" (String.concat "," top) ] else [])
  @ (if workload_names <> workloads then
       [ Printf.sprintf "workloads [%s], want [%s]" (String.concat "," workload_names)
           (String.concat "," workloads) ]
     else [])
  @ check_list ~section:"end_to_end" ~with_bound:true end_to_end json
  @ check_list ~section:"per_layer" ~with_bound:false per_layer json
