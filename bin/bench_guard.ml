(* bench_guard: quality gate over bench NDJSON rows, and timing gate
   over alternating hcabench pairs.

   Usage: bench_guard [--require-rows EXP=N]... [--gate-optgap]
                      BASELINE.json CURRENT.json
          bench_guard --pairs BENCHMARK.json PARENT.ndjson CHANGE.ndjson

   Quality gate.  Both files hold the NDJSON rows [bench/main.exe
   --json], [hca dse --out] or [hca loadtest --out] write.  For every
   (experiment, kernel) row present in BOTH files, the quality fields —
   "final_mii", "legal", "copies", and "max_wire_load" and "wires" when
   the baseline has them — must match exactly, compared as JSON values;
   counters may drift.  Report figures are named as Hca_core.Report
   writes them (this executable does not link the library, so the list
   spells them); "wires" is bench extended's topology wire count.  Rows
   only one side has are reported but do not fail the gate, so the
   baseline need not grow in lockstep with the suite.  A baseline row
   whose "git" stamp ends in "-dirty" draws a warning: it matches no
   commit.

   "optgap" rows depend on a SAT budget and are skipped unless
   [--gate-optgap] turns on the budget-robust checks: the two runs'
   certificates must not contradict (a certified lower bound above the
   other run's model is always a solver bug), two proven optima must
   agree, and the number of proven-optimal rows must not drop.

   Each repeatable [--require-rows exp=N] requires exactly N rows of
   that experiment in CURRENT, so a sweep that silently dropped points
   fails even though every row it emitted is clean.

   Timing gate ([--pairs], run by scripts/perf_pair.sh).  PARENT and
   CHANGE hold one line per [hcabench run], {"workload", "pair",
   "result"}, where "result" is the object hcabench printed last, and
   must hold the same (workload, pair) keys.  For every workload and
   every end-to-end metric BENCHMARK.json declares, the gate prints the
   medians of both sides and the median over pairs of change/parent,
   and fails when that ratio is worse in the metric's declared
   direction by more than its bound, or when the change failed a
   larger share of its ops.  One timed run is one sample of a shared
   machine's clock; the median over alternating pairs is not.

   Every non-blank line must be one JSON object with its keys, or the
   file and line are named as a parse error.  Exit status: 0 clean,
   1 on any regression, 2 on usage or parse errors. *)

module Json = Hca_util.Json

let quality_fields = [ "final_mii"; "legal"; "copies"; "max_wire_load"; "wires" ]

let skipped_experiments = [ "optgap" ]

let str_field name row = Option.bind (Json.member name row) Json.str

let int_field name row = Option.bind (Json.member name row) Json.int

let regressions = ref 0

let regress fmt =
  Printf.ksprintf
    (fun m ->
      incr regressions;
      print_endline ("REGRESSION " ^ m))
    fmt

(* Every non-blank line of [path] as [(key row, row)]; [key] names what
   a row lacks. *)
let load_lines path key =
  let bad lineno msg = failwith (Printf.sprintf "%s:%d: %s" path lineno msg) in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter_map (fun (lineno, line) ->
         if line = "" then None
         else
           match Json.parse line with
           | Error e -> bad lineno ("not a JSON row: " ^ e)
           | Ok row -> (
               match key row with
               | Ok k -> Some (k, row)
               | Error lacks -> bad lineno ("row without " ^ lacks)))

let load path =
  load_lines path (fun row ->
      match (str_field "experiment" row, str_field "kernel" row) with
      | Some e, Some k -> Ok (e, k)
      | _ -> Error "string experiment/kernel")

let usage () =
  prerr_endline
    "usage: bench_guard [--require-rows EXP=N]... [--gate-optgap] \
     BASELINE.json CURRENT.json\n\
    \       bench_guard --pairs BENCHMARK.json PARENT.ndjson CHANGE.ndjson";
  exit 2

(* "exp=N" -> (exp, N) *)
let parse_row_count spec =
  match String.index_opt spec '=' with
  | None -> None
  | Some eq -> (
      let exp = String.sub spec 0 eq in
      let count = String.sub spec (eq + 1) (String.length spec - eq - 1) in
      match int_of_string_opt count with
      | Some n when exp <> "" && n >= 0 -> Some (exp, n)
      | _ -> None)

let quality_gate ~gate_optgap ~row_counts baseline current =
  let compared = ref 0 in
  let dirty_rows =
    List.filter
      (fun (_, row) ->
        match str_field "git" row with
        | Some v -> String.ends_with ~suffix:"-dirty" v
        | None -> false)
      baseline
  in
  if dirty_rows <> [] then
    Printf.printf
      "  warning: %d baseline row(s) carry a -dirty git stamp (produced from \
       an uncommitted tree); regenerate the baseline from a clean checkout\n"
      (List.length dirty_rows);
  let base_optimal = ref 0 and cur_optimal = ref 0 in
  List.iter
    (fun ((exp, kernel), cur) ->
      match List.assoc_opt (exp, kernel) baseline with
      | _
        when List.mem exp skipped_experiments
             && not (gate_optgap && exp = "optgap") ->
          ()
      | None -> Printf.printf "  new row %s/%s (not in baseline, ok)\n" exp kernel
      | Some base when exp = "optgap" -> (
          incr compared;
          let status = str_field "status" in
          if status base = Some "optimal" then incr base_optimal;
          if status cur = Some "optimal" then incr cur_optimal;
          let lb = int_field "lower_bound" and mii = int_field "final_mii" in
          (match (lb cur, mii base) with
          | Some lc, Some fb when lc > fb ->
              regress "%s/%s: certified lower bound %d contradicts baseline \
                       model at %d" exp kernel lc fb
          | _ -> ());
          (match (lb base, mii cur) with
          | Some lb, Some fc when fc < lb ->
              regress "%s/%s: model at %d below baseline certified lower \
                       bound %d" exp kernel fc lb
          | _ -> ());
          match (status base, status cur, mii base, mii cur) with
          | Some "optimal", Some "optimal", Some a, Some b when a <> b ->
              regress "%s/%s: proven optimum moved from %d to %d" exp kernel a b
          | _ -> ())
      | Some base ->
          incr compared;
          List.iter
            (fun f ->
              match (Json.member f base, Json.member f cur) with
              | Some b, Some c when b <> c ->
                  regress "%s/%s: %s was %s, now %s" exp kernel f
                    (Json.to_string b) (Json.to_string c)
              | Some _, None -> regress "%s/%s: %s disappeared" exp kernel f
              | None, _ | Some _, Some _ -> ())
            quality_fields)
    current;
  if gate_optgap && !cur_optimal < !base_optimal then
    regress "optgap: proven-optimal rows dropped from %d to %d (a probe no \
             longer closes within its budget)" !base_optimal !cur_optimal;
  List.iter
    (fun ((exp, kernel), _) ->
      if not (List.mem_assoc (exp, kernel) current) then
        Printf.printf "  baseline row %s/%s missing from current run\n" exp kernel)
    baseline;
  List.iter
    (fun (exp, want) ->
      let got = List.length (List.filter (fun ((e, _), _) -> e = exp) current) in
      if got <> want then
        regress "%s: expected %d row(s) in the current run, got %d" exp want got
      else Printf.printf "  %s row count %d as required\n" exp got)
    row_counts;
  if !regressions > 0 then begin
    Printf.printf "bench_guard: %d quality regression(s) over %d rows\n"
      !regressions !compared;
    exit 1
  end
  else Printf.printf "bench_guard: %d rows compared, quality unchanged\n" !compared

(* An end-to-end metric as BENCHMARK.json declares it. *)
type bound = { metric : string; lower_better : bool; bound : float }

let load_bounds path =
  let bad msg = failwith (Printf.sprintf "%s: %s" path msg) in
  match Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Error e -> bad e
  | Ok decl -> (
      match Json.member "end_to_end" decl with
      | Some (Json.Arr metrics) ->
          List.map
            (fun m ->
              match
                ( str_field "name" m,
                  str_field "better" m,
                  Option.bind (Json.member "bound" m) Json.num )
              with
              | Some metric, Some (("lower" | "higher") as better), Some bound ->
                  { metric; lower_better = better = "lower"; bound }
              | _ -> bad "end_to_end entry without name, better and bound")
            metrics
      | _ -> bad "no end_to_end list")

(* A number under a run's "result", e.g. [["metrics"; m; "value"]]. *)
let result_num keys run =
  let v =
    List.fold_left
      (fun v key -> Option.bind v (Json.member key))
      (Json.member "result" run) keys
  in
  Option.bind v Json.num

let metric_path b = [ "metrics"; b.metric; "value" ]

(* Runs keyed by (workload, pair), each carrying every declared metric
   and its op counts. *)
let load_runs bounds path =
  load_lines path (fun row ->
      let lacks =
        List.filter
          (fun keys -> result_num keys row = None)
          ([ "attempted" ] :: [ "failed" ] :: List.map metric_path bounds)
      in
      match (str_field "workload" row, int_field "pair" row, lacks) with
      | Some w, Some i, [] -> Ok (w, i)
      | _, _, keys :: _ -> Error ("result." ^ String.concat "." keys)
      | _ -> Error "string workload and integer pair")

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let pair_gate bounds parent change =
  let workloads =
    List.fold_left
      (fun acc ((w, _), _) -> if List.mem w acc then acc else acc @ [ w ])
      [] change
  in
  Printf.printf "%-14s %-15s %10s %10s %7s %6s\n" "workload" "metric" "parent"
    "change" "ratio" "bound";
  List.iter
    (fun w ->
      let pairs =
        List.filter_map
          (fun ((w', i), cr) ->
            if w' = w then Some (List.assoc (w, i) parent, cr) else None)
          change
      in
      let side f keys = List.map (fun pr -> Option.get (result_num keys (f pr))) pairs in
      List.iter
        (fun b ->
          let pv = side fst (metric_path b) and cv = side snd (metric_path b) in
          let ratio =
            median (List.map2 (fun p c -> if p = c then 1. else c /. p) pv cv)
          in
          Printf.printf "%-14s %-15s %10.4g %10.4g %7.3f %6g\n" w b.metric
            (median pv) (median cv) ratio b.bound;
          let worse = if b.lower_better then ratio -. 1. else 1. -. ratio in
          if not (worse <= b.bound) then
            regress "%s/%s: median change/parent ratio %.3f, bound %g" w
              b.metric ratio b.bound)
        bounds;
      let failed_share f =
        let sum key = List.fold_left ( +. ) 0. (side f [ key ]) in
        if sum "attempted" > 0. then sum "failed" /. sum "attempted" else 0.
      in
      let ps = failed_share fst and cs = failed_share snd in
      Printf.printf "%-14s %-15s %10.4g %10.4g\n" w "failed share" ps cs;
      if cs > ps then
        regress "%s: the change failed %.4g of its ops, the parent %.4g" w cs ps)
    workloads;
  if !regressions > 0 then begin
    Printf.printf "bench_guard: %d regression(s) over %d pair(s)\n"
      !regressions (List.length change);
    exit 1
  end
  else
    Printf.printf "bench_guard: %d pair(s) compared, within bounds\n"
      (List.length change)

let () =
  let row_counts = ref [] in
  let paths = ref [] in
  let gate_optgap = ref false in
  let pairs = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--pairs" :: decl :: rest ->
        pairs := Some decl;
        parse_args rest
    | "--require-rows" :: spec :: rest -> (
        match parse_row_count spec with
        | Some rc ->
            row_counts := rc :: !row_counts;
            parse_args rest
        | None ->
            Printf.eprintf "bench_guard: bad --require-rows %S (want exp=N)\n"
              spec;
            exit 2)
    | [ ("--pairs" | "--require-rows") ] -> usage ()
    | "--gate-optgap" :: rest ->
        gate_optgap := true;
        parse_args rest
    | p :: rest ->
        paths := p :: !paths;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let parse_error msg =
    Printf.eprintf "bench_guard: %s\n" msg;
    exit 2
  in
  match (!pairs, List.rev !paths) with
  | Some decl, [ parent_path; change_path ] -> (
      let keys runs = List.sort compare (List.map fst runs) in
      match
        let bounds = load_bounds decl in
        (bounds, load_runs bounds parent_path, load_runs bounds change_path)
      with
      | exception (Failure msg | Sys_error msg) -> parse_error msg
      | _, parent, change when keys parent <> keys change ->
          parse_error
            (Printf.sprintf "%s and %s hold different (workload, pair) runs"
               parent_path change_path)
      | bounds, parent, change -> pair_gate bounds parent change)
  | None, [ baseline_path; current_path ] -> (
      match (load baseline_path, load current_path) with
      | exception (Failure msg | Sys_error msg) -> parse_error msg
      | baseline, current ->
          quality_gate ~gate_optgap:!gate_optgap
            ~row_counts:(List.rev !row_counts) baseline current)
  | _ -> usage ()
