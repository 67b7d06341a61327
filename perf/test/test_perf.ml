(* Unit tests of the benchmark's statistics and of its declaration:
   what it prints must match BENCHMARK.json at the repository root. *)

module Json = Hca_serve.Json

let floats = Alcotest.(list (float 1e-12))

let close = Alcotest.float 1e-12

let arr l = Array.of_list (List.map float_of_int l)

let range a b = arr (List.init (b - a + 1) (fun i -> a + i))

(* ------------------------------------------------------------------ *)
(* Stats, against hand-computed values (the quantiles also against
   Python's statistics.quantiles) *)

let test_median () =
  Alcotest.check close "odd" 2. (Stats.median (arr [ 3; 1; 2 ]));
  Alcotest.check close "even" 2.5 (Stats.median (arr [ 4; 1; 3; 2 ]));
  let xs = arr [ 3; 1; 2 ] in
  ignore (Stats.median xs);
  Alcotest.check floats "input untouched" [ 3.; 1.; 2. ] (Array.to_list xs);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no samples") (fun () ->
      ignore (Stats.median [||]))

let test_quantiles () =
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ] (Stats.quantiles (range 1 10));
  Alcotest.check floats "unsorted five" [ 1.5; 3.; 4.5 ] (Stats.quantiles (arr [ 4; 1; 3; 2; 5 ]));
  Alcotest.check floats "three" [ 3.; 5.; 7. ] (Stats.quantiles (arr [ 7; 3; 5 ]));
  Alcotest.check floats "two extrapolate" [ 0.75; 1.5; 2.25 ] (Stats.quantiles (arr [ 1; 2 ]))

let test_mad_geomean () =
  Alcotest.check close "mad" 1. (Stats.mad (arr [ 1; 1; 2; 2; 4; 6; 9 ]));
  Alcotest.check close "mad constant" 0. (Stats.mad (arr [ 5; 5; 5 ]));
  Alcotest.check (Alcotest.float 1e-9) "geomean" 4. (Stats.geomean (arr [ 1; 4; 16 ]));
  Alcotest.check (Alcotest.float 1e-9) "geomean pair" 4. (Stats.geomean (arr [ 2; 8 ]));
  Alcotest.check_raises "zero" (Invalid_argument "Stats.geomean: non-positive sample") (fun () ->
      ignore (Stats.geomean (arr [ 1; 0 ])))

let ok_value what xs p expected =
  match Stats.percentile xs p with
  | Ok r ->
      Alcotest.check close what expected r.value;
      Alcotest.(check int) (what ^ " samples") (Array.length xs) r.samples
  | Error r -> Alcotest.failf "%s refused with %d beyond" what r.beyond

let refused what xs p ~beyond =
  match Stats.percentile xs p with
  | Ok _ -> Alcotest.failf "%s should be refused" what
  | Error r ->
      Alcotest.(check int) (what ^ " beyond") beyond r.beyond;
      Alcotest.(check int) (what ^ " samples") (Array.length xs) r.samples

let test_percentile_rule () =
  ok_value "p90 of 1..100" (range 1 100) 90. 90.;
  refused "p90 of 1..99" (range 1 99) 90. ~beyond:9;
  ok_value "p50 of 1..20" (range 1 20) 50. 10.;
  refused "p50 of 1..19" (range 1 19) 50. ~beyond:9;
  ok_value "p99 of 1..1000" (range 1 1000) 99. 990.;
  refused "p99 of 1..999" (range 1 999) 99. ~beyond:9;
  refused "empty" [||] 50. ~beyond:0

(* ------------------------------------------------------------------ *)
(* Declaration and output                                              *)

let benchmark_json () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  match Json.parse text with Ok j -> j | Error e -> Alcotest.failf "BENCHMARK.json: %s" e

let test_declaration_matches () =
  Alcotest.(check (list string)) "BENCHMARK.json matches the code" [] (Decl.check_benchmark_json (benchmark_json ()))

let test_declaration_drift_is_caught () =
  let drop_first = function
    | Json.Obj l ->
        Json.Obj
          (List.map
             (fun (k, v) -> match (k, v) with "per_layer", Json.Arr (_ :: rest) -> (k, Json.Arr rest) | _ -> (k, v))
             l)
    | j -> j
  in
  Alcotest.(check bool) "an undeclared printed metric is reported" true
    (Decl.check_benchmark_json (drop_first (benchmark_json ())) <> [])

let test_names () =
  List.iter
    (fun (m : Decl.metric) -> Alcotest.(check bool) m.name true (Decl.valid_name m.name))
    (Decl.end_to_end @ Decl.per_layer);
  List.iter
    (fun bad -> Alcotest.(check bool) bad false (Decl.valid_name bad))
    [ ""; "a b"; "lat\"ms"; "f\xc3\xafr"; String.make 65 'a' ]

let e2e_values = List.map (fun (m : Decl.metric) -> (m.name, 1.5)) Decl.end_to_end

let test_result_line () =
  match Emit.result_line ~trace:false ~correct:true ~attempted:3 ~failed:0 e2e_values with
  | Error e -> Alcotest.fail e
  | Ok line -> (
      match Json.parse line with
      | Error e -> Alcotest.fail e
      | Ok j ->
          Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ]
            (match j with Json.Obj l -> List.map fst l | _ -> []);
          List.iter
            (fun (m : Decl.metric) ->
              let entry = Option.bind (Json.member "metrics" j) (Json.member m.name) in
              Alcotest.(check (option (float 0.))) m.name (Some 1.5) (Option.bind (Option.bind entry (Json.member "value")) Json.num);
              Alcotest.(check (option string)) (m.name ^ " unit") (Some m.unit_)
                (Option.bind (Option.bind entry (Json.member "unit")) Json.str))
            Decl.end_to_end)

let test_result_line_rejects () =
  let is_error = function Ok _ -> false | Error _ -> true in
  let line metrics = Emit.result_line ~trace:false ~correct:true ~attempted:1 ~failed:0 metrics in
  Alcotest.(check bool) "missing" true (is_error (line (List.tl e2e_values)));
  Alcotest.(check bool) "undeclared" true (is_error (line (("latency_p99_ms", 1.) :: e2e_values)));
  Alcotest.(check bool) "nan" true (is_error (line (("setup_s", nan) :: List.tl e2e_values)));
  Alcotest.(check bool) "per-layer set when traced" true
    (is_error (Emit.result_line ~trace:true ~correct:true ~attempted:1 ~failed:0 e2e_values))

(* OCaml's "%S" would print this name as "f\195\175r...", which no JSON
   parser accepts; the rows carry it through as UTF-8. *)
let test_non_ascii_kernel_name () =
  let name = "f\xc3\xafr2dim-\xc3\xa9" in
  let line =
    Emit.input_row ~workload:"compile_suite" ~input:name ~median_ms:1.25 ~fastest_ms:1.125 ~samples:3 ~legal:true ~mii:5 ~copies:7
  in
  Alcotest.(check bool) "no OCaml escapes" false (String.contains line '\\');
  match Json.parse line with
  | Error e -> Alcotest.fail e
  | Ok j -> Alcotest.(check (option string)) "round trip" (Some name) (Option.bind (Json.member "input" j) Json.str)

let () =
  Alcotest.run "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "mad and geomean" `Quick test_mad_geomean;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
        ] );
      ( "declaration",
        [
          Alcotest.test_case "BENCHMARK.json matches" `Quick test_declaration_matches;
          Alcotest.test_case "drift is caught" `Quick test_declaration_drift_is_caught;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "result line" `Quick test_result_line;
          Alcotest.test_case "result line rejects" `Quick test_result_line_rejects;
          Alcotest.test_case "non-ASCII kernel name" `Quick test_non_ascii_kernel_name;
        ] );
    ]
