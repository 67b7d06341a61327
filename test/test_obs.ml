(* Tests for the lib/obs tracing layer: per-domain stream
   well-formedness under the domain pool, counter merge associativity,
   histogram percentile sanity, the no-observer-effect property of the
   instrumented search, and the Chrome-trace export format. *)

open Hca_obs
module Json = Hca_util.Json

let fabric = Hca_machine.Dspfabric.reference

(* Every test drives the global tracer, so each one owns the full
   enable→work→disable cycle and always releases it on exit. *)
let with_tracing f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable f

(* ------------------------------------------------------------------ *)
(* Span streams nest well-formedly per domain under parallel_map.       *)
(* ------------------------------------------------------------------ *)

let test_span_nesting_parallel () =
  let items = List.init 20 Fun.id in
  let results =
    with_tracing (fun () ->
        Hca_util.Domain_pool.parallel_map ~jobs:4
          (fun i ->
            Obs.span "outer"
              ~args:[ ("i", string_of_int i) ]
              (fun () -> Obs.span "inner" (fun () -> i * i)))
          items)
  in
  Alcotest.(check (list int))
    "computation unaffected"
    (List.map (fun i -> i * i) items)
    results;
  let outer = ref 0 and inner = ref 0 in
  List.iter
    (fun (dom, evs) ->
      let depth = ref 0 in
      List.iter
        (fun (e : Obs.event) ->
          match e.Obs.kind with
          | `Begin ->
              incr depth;
              if e.Obs.name = "outer" then incr outer;
              if e.Obs.name = "inner" then incr inner
          | `End ->
              if !depth <= 0 then
                Alcotest.failf "domain %d: End with empty span stack" dom;
              decr depth
          | _ -> ())
        evs;
      Alcotest.(check int)
        (Printf.sprintf "domain %d stream balanced" dom)
        0 !depth)
    (Obs.events ());
  Alcotest.(check int) "one outer span per item" (List.length items) !outer;
  Alcotest.(check int) "one inner span per item" (List.length items) !inner

let test_span_survives_exception () =
  with_tracing (fun () ->
      (try Obs.span "boom" (fun () -> failwith "expected") with
      | Failure _ -> ());
      let evs = List.concat_map snd (Obs.events ()) in
      let begins =
        List.length (List.filter (fun e -> e.Obs.kind = `Begin) evs)
      in
      let ends = List.length (List.filter (fun e -> e.Obs.kind = `End) evs) in
      Alcotest.(check int) "begin recorded" 1 begins;
      Alcotest.(check int) "end recorded despite raise" 1 ends)

(* ------------------------------------------------------------------ *)
(* Counter merge: per-domain partials sum to the sequential total.      *)
(* ------------------------------------------------------------------ *)

let test_counter_merge () =
  let expected = List.fold_left ( + ) 0 (List.init 100 Fun.id) in
  with_tracing (fun () ->
      ignore
        (Hca_util.Domain_pool.parallel_map ~jobs:4
           (fun i ->
             Obs.count "c" i;
             i)
           (List.init 100 Fun.id));
      let s = Obs.Summary.collect () in
      Alcotest.(check int)
        "total independent of domain placement" expected
        (Obs.Summary.counter s "c");
      Alcotest.(check int) "absent counter reads 0" 0
        (Obs.Summary.counter s "nope"))

(* ------------------------------------------------------------------ *)
(* Histogram percentiles.                                              *)
(* ------------------------------------------------------------------ *)

let test_histogram_percentiles () =
  with_tracing (fun () ->
      List.iter
        (fun i -> Obs.observe "h" (float_of_int i))
        (List.init 100 (fun i -> i + 1));
      let s = Obs.Summary.collect () in
      match
        List.find_opt
          (fun h -> h.Obs.Summary.h_name = "h")
          s.Obs.Summary.histograms
      with
      | None -> Alcotest.fail "histogram 'h' missing from summary"
      | Some h ->
          Alcotest.(check int) "samples" 100 h.Obs.Summary.samples;
          Alcotest.(check (float 1e-9)) "min" 1. h.Obs.Summary.min_v;
          Alcotest.(check (float 1e-9)) "max" 100. h.Obs.Summary.max_v;
          Alcotest.(check (float 0.5)) "mean" 50.5 h.Obs.Summary.mean;
          let within lo hi v = v >= lo && v <= hi in
          Alcotest.(check bool) "p50 near median" true
            (within 45. 55. h.Obs.Summary.p50);
          Alcotest.(check bool) "p90 near 90th" true
            (within 85. 95. h.Obs.Summary.p90))

(* ------------------------------------------------------------------ *)
(* No observer effect: Report.run is bit-identical traced or not.       *)
(* ------------------------------------------------------------------ *)

(* Everything except the wall clock and the (structurally equal but
   allocation-fresh) result payload. *)
let fingerprint (r : Hca_core.Report.t) =
  ( ( r.Hca_core.Report.kernel,
      r.Hca_core.Report.n_instr,
      r.Hca_core.Report.mii_rec,
      r.Hca_core.Report.mii_res,
      r.Hca_core.Report.ini_mii,
      r.Hca_core.Report.legal,
      r.Hca_core.Report.final_mii,
      r.Hca_core.Report.ii_used ),
    ( r.Hca_core.Report.copies,
      r.Hca_core.Report.forwards,
      r.Hca_core.Report.max_wire_load,
      r.Hca_core.Report.explored_states,
      r.Hca_core.Report.routed_moves,
      r.Hca_core.Report.cache_hits,
      r.Hca_core.Report.cache_misses,
      r.Hca_core.Report.reused_subproblems ) )

let test_trace_no_observer_effect () =
  let ddg = Hca_kernels.Fir2dim.ddg () in
  List.iter
    (fun jobs ->
      let plain = Hca_core.Report.run ~jobs fabric ddg in
      let traced =
        with_tracing (fun () -> Hca_core.Report.run ~jobs fabric ddg)
      in
      Alcotest.(check bool)
        (Printf.sprintf "identical search at jobs=%d" jobs)
        true
        (fingerprint plain = fingerprint traced))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Chrome-trace export: parses, balances, and names the spans.          *)
(* ------------------------------------------------------------------ *)

let test_chrome_trace_valid () =
  let ddg = Hca_kernels.Fir2dim.ddg () in
  let json =
    with_tracing (fun () ->
        ignore (Hca_core.Report.run fabric ddg);
        Obs.observe "test.big" 1234567.5;
        Obs.Trace.to_chrome_json ~meta:[ ("origin", "test_obs") ] ())
  in
  (* Counter args carry the exact value, not six significant digits. *)
  let big =
    match Json.parse json with
    | Ok j ->
        Option.bind (Json.member "traceEvents" j) (function
          | Json.Arr evs ->
              List.find_map
                (fun e ->
                  Option.bind (Json.member "args" e) (fun a ->
                      Option.bind (Json.member "test.big" a) Json.num))
                evs
          | _ -> None)
    | Error _ -> None
  in
  Alcotest.(check (option (float 0.))) "exact counter arg" (Some 1234567.5) big;
  match Trace_check.validate json with
  | Error e -> Alcotest.failf "invalid Chrome trace: %s" e
  | Ok stats ->
      Alcotest.(check bool) "has events" true (stats.Trace_check.events > 0);
      Alcotest.(check bool)
        "at least one domain track" true
        (List.length stats.Trace_check.tracks >= 1);
      List.iter
        (fun name ->
          match List.assoc_opt name stats.Trace_check.span_names with
          | Some n when n > 0 -> ()
          | _ -> Alcotest.failf "expected span %S in the trace" name)
        [ "report.run"; "hierarchy.solve"; "subproblem.L0"; "see.solve" ]

let test_chrome_trace_rejects_garbage () =
  (match Trace_check.validate "{\"traceEvents\":" with
  | Ok _ -> Alcotest.fail "truncated JSON accepted"
  | Error _ -> ());
  match
    Trace_check.validate
      "{\"traceEvents\":[{\"ph\":\"E\",\"ts\":0,\"pid\":1,\"tid\":1}]}"
  with
  | Ok _ -> Alcotest.fail "unbalanced E accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Structured logging: every emitted line is flat JSON, the level      *)
(* threshold filters, fields and escapes survive the round-trip.       *)
(* ------------------------------------------------------------------ *)

let tmp_file name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hca_obs_%s_%d" name (Unix.getpid ()))

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

let parse_json line =
  match Json.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "log line is not JSON %S: %s" line e

let jfield j k = Json.member k j

let jstr j k = Option.bind (jfield j k) Json.str

let test_log_json_and_level_filter () =
  let path = tmp_file "log" in
  if Sys.file_exists path then Sys.remove path;
  Obs.Log.to_file path;
  Obs.Log.set_level Obs.Log.Warn;
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.off ();
      Obs.Log.set_level Obs.Log.Info)
    (fun () ->
      Alcotest.(check bool) "below threshold inactive" false
        (Obs.Log.active Obs.Log.Info);
      Alcotest.(check bool) "at threshold active" true
        (Obs.Log.active Obs.Log.Warn);
      Obs.Log.debug "drop.debug" [];
      Obs.Log.info "drop.info" [ ("x", Obs.Log.I 1) ];
      Obs.Log.warn ~req:7 "keep.warn"
        [
          ("s", Obs.Log.S "v");
          ("i", Obs.Log.I 42);
          ("f", Obs.Log.F 1234567.5);
          ("b", Obs.Log.B true);
        ];
      Obs.Log.error "keep.error" [ ("why", Obs.Log.S "boom \"quoted\"\n") ]);
  let lines = read_lines path in
  Sys.remove path;
  Alcotest.(check int) "below-threshold lines dropped" 2 (List.length lines);
  let w = parse_json (List.nth lines 0) in
  let e = parse_json (List.nth lines 1) in
  Alcotest.(check (option string)) "level name" (Some "warn") (jstr w "level");
  Alcotest.(check (option string)) "event name" (Some "keep.warn")
    (jstr w "event");
  Alcotest.(check (option int)) "request id" (Some 7)
    (Option.bind (jfield w "req") Json.int);
  Alcotest.(check (option string)) "string field" (Some "v") (jstr w "s");
  Alcotest.(check (option int)) "int field" (Some 42)
    (Option.bind (jfield w "i") Json.int);
  Alcotest.(check (option bool)) "bool field" (Some true)
    (Option.bind (jfield w "b") Json.bool);
  Alcotest.(check (option (float 0.))) "float field exact" (Some 1234567.5)
    (Option.bind (jfield w "f") Json.num);
  Alcotest.(check (option string)) "error level" (Some "error")
    (jstr e "level");
  Alcotest.(check (option string)) "escapes survive the round-trip"
    (Some "boom \"quoted\"\n") (jstr e "why");
  let ts j = Option.get (Option.bind (jfield j "ts") Json.num) in
  Alcotest.(check bool) "timestamps monotone" true (ts e >= ts w);
  Alcotest.(check bool) "level_of_string" true
    (Obs.Log.level_of_string "warning" = Some Obs.Log.Warn
    && Obs.Log.level_of_string "debug" = Some Obs.Log.Debug
    && Obs.Log.level_of_string "frobnicate" = None)

(* ------------------------------------------------------------------ *)
(* Registry: cross-domain counter merge, quantile estimation, and      *)
(* both exposition formats.                                            *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_registry_cross_domain_merge () =
  Obs.Registry.clear ();
  Fun.protect ~finally:Obs.Registry.clear (fun () ->
      ignore
        (Hca_util.Domain_pool.parallel_map ~jobs:4
           (fun i ->
             Obs.Registry.inc ~by:i "r_total";
             i)
           (List.init 100 Fun.id));
      Alcotest.(check int) "total independent of domain placement" 4950
        (Obs.Registry.counter "r_total");
      Obs.Registry.inc "r_total";
      Alcotest.(check int) "default increment is 1" 4951
        (Obs.Registry.counter "r_total");
      Alcotest.(check int) "absent counter reads 0" 0
        (Obs.Registry.counter "nope");
      (* A name keeps its first kind: telemetry misuse is ignored, not
         an exception in the serving path. *)
      Obs.Registry.set "r_total" 0.;
      Alcotest.(check int) "kind mismatch ignored" 4951
        (Obs.Registry.counter "r_total"))

let test_registry_quantile_and_exposition () =
  Obs.Registry.clear ();
  Fun.protect ~finally:Obs.Registry.clear (fun () ->
      let buckets = [| 10.; 20.; 30.; 40.; 50.; 60.; 70.; 80.; 90.; 100. |] in
      List.iter
        (fun i -> Obs.Registry.observe ~buckets "r_lat_ms" (float_of_int (i + 1)))
        (List.init 100 Fun.id);
      Obs.Registry.observe "r_big_ms" 1234567.5;
      Obs.Registry.set "r_depth" 3.;
      Obs.Registry.inc ~by:5 {|r_hits{verb="submit"}|};
      let snap = Obs.Registry.snapshot () in
      (match List.assoc_opt "r_lat_ms" snap.Obs.Registry.hists with
      | None -> Alcotest.fail "histogram missing from snapshot"
      | Some hv ->
          Alcotest.(check int) "sample count" 100 hv.Obs.Registry.count;
          Alcotest.(check (float 1e-6)) "sum" 5050. hv.Obs.Registry.sum;
          let p50 = Obs.Registry.quantile hv 0.5 in
          let p99 = Obs.Registry.quantile hv 0.99 in
          Alcotest.(check bool) "p50 within its bucket" true
            (p50 >= 40. && p50 <= 60.);
          Alcotest.(check bool) "p99 in the upper tail" true (p99 >= 90.);
          Alcotest.(check bool) "quantiles ordered" true (p99 >= p50));
      Alcotest.(check (option (float 1e-9))) "gauge readable" (Some 3.)
        (List.assoc_opt "r_depth" snap.Obs.Registry.gauges);
      (* Prometheus text: typed base names, labelled series kept intact,
         every sample line ends in a parseable value. *)
      let text = Obs.Registry.to_prometheus () in
      Alcotest.(check bool) "counter TYPE line" true
        (contains ~sub:"# TYPE r_hits counter" text);
      Alcotest.(check bool) "labelled series" true
        (contains ~sub:{|r_hits{verb="submit"} 5|} text);
      Alcotest.(check bool) "cumulative buckets" true
        (contains ~sub:{|r_lat_ms_bucket{le="+Inf"} 100|} text);
      Alcotest.(check bool) "histogram count series" true
        (contains ~sub:"r_lat_ms_count 100" text);
      List.iter
        (fun line ->
          if line <> "" && line.[0] <> '#' then
            match String.rindex_opt line ' ' with
            | None -> Alcotest.failf "no sample value on %S" line
            | Some i ->
                let v = String.sub line (i + 1) (String.length line - i - 1) in
                if float_of_string_opt v = None then
                  Alcotest.failf "unparseable sample on %S" line)
        (String.split_on_char '\n' text);
      (* JSON exposition parses and carries the same figures. *)
      match Json.parse (Json.to_string (Obs.Registry.to_json ())) with
      | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
      | Ok j ->
          let counters = Option.get (jfield j "counters") in
          Alcotest.(check (option int)) "counter in JSON" (Some 5)
            (Option.bind
               (Json.member {|r_hits{verb="submit"}|} counters)
               Json.int);
          let hists = Option.get (jfield j "histograms") in
          let h = Option.get (Json.member "r_lat_ms" hists) in
          Alcotest.(check (option int)) "histogram count in JSON" (Some 100)
            (Option.bind (jfield h "count") Json.int);
          (* Sums are exact in JSON (the Prometheus text keeps %g). *)
          let big = Option.get (Json.member "r_big_ms" hists) in
          Alcotest.(check (option (float 0.))) "exact histogram sum"
            (Some 1234567.5)
            (Option.bind (jfield big "sum") Json.num))

(* ------------------------------------------------------------------ *)
(* Flight ring: bounded, always dumps a valid trace even after heavy   *)
(* overwrite, and per-request captures export standalone traces.       *)
(* ------------------------------------------------------------------ *)

let test_ring_dump_bounded_and_valid () =
  Obs.Ring.arm ~capacity:64 ();
  Fun.protect ~finally:Obs.Ring.disarm (fun () ->
      Alcotest.(check bool) "armed" true (Obs.Ring.armed ());
      Alcotest.(check int) "capacity" 64 (Obs.Ring.capacity ());
      (* Overflow the ring many times over: overwritten Begins must not
         leave orphan Ends in the dump. *)
      for i = 0 to 199 do
        Obs.span "work"
          ~args:[ ("i", string_of_int i) ]
          (fun () -> Obs.instant "tick")
      done;
      let path = tmp_file "ring.json" in
      Obs.Ring.write ~meta:[ ("origin", "test_obs") ] path;
      (match Trace_check.validate_file path with
      | Error e -> Alcotest.failf "ring dump invalid: %s" e
      | Ok stats ->
          Alcotest.(check bool) "kept recent events" true
            (stats.Trace_check.events > 0);
          Alcotest.(check bool) "bounded by ring capacity" true
            (stats.Trace_check.events <= Obs.Ring.capacity () + 16));
      Sys.remove path)

let test_capture_standalone_trace () =
  Obs.Capture.start ();
  Alcotest.(check bool) "capture active" true (Obs.Capture.active ());
  Obs.span "request.work" (fun () -> Obs.instant "step");
  let evs = Obs.Capture.stop () in
  Alcotest.(check bool) "capture stopped" false (Obs.Capture.active ());
  Alcotest.(check bool) "events captured" true (List.length evs >= 3);
  let path = tmp_file "capture.json" in
  Obs.Capture.write ~meta:[ ("request", "42") ] path evs;
  (match Trace_check.validate_file path with
  | Error e -> Alcotest.failf "capture trace invalid: %s" e
  | Ok stats -> (
      match List.assoc_opt "request.work" stats.Trace_check.span_names with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.fail "captured span missing"));
  Sys.remove path;
  Alcotest.(check (list (pair int string))) "stop with no capture is empty" []
    (List.map (fun (e : Obs.event) -> (0, e.Obs.name)) (Obs.Capture.stop ()))

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting under parallel_map" `Quick
            test_span_nesting_parallel;
          Alcotest.test_case "end recorded on exception" `Quick
            test_span_survives_exception;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter merge associativity" `Quick
            test_counter_merge;
          Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
        ] );
      ( "no-observer-effect",
        [
          Alcotest.test_case "Report.run bit-identical traced/untraced"
            `Quick test_trace_no_observer_effect;
        ] );
      ( "chrome-trace",
        [
          Alcotest.test_case "export validates" `Quick test_chrome_trace_valid;
          Alcotest.test_case "checker rejects garbage" `Quick
            test_chrome_trace_rejects_garbage;
        ] );
      ( "log",
        [
          Alcotest.test_case "JSON lines + level filter" `Quick
            test_log_json_and_level_filter;
        ] );
      ( "registry",
        [
          Alcotest.test_case "cross-domain counter merge" `Quick
            test_registry_cross_domain_merge;
          Alcotest.test_case "quantile + exposition" `Quick
            test_registry_quantile_and_exposition;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring dump bounded and valid" `Quick
            test_ring_dump_bounded_and_valid;
          Alcotest.test_case "capture standalone trace" `Quick
            test_capture_standalone_trace;
        ] );
    ]
