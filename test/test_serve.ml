(* Tests for the lib/serve compile daemon: protocol round-trips
   (malformed input included), job-queue priority / cancel / deadline
   semantics, the in-process daemon handler, and the persistent memo
   store — warm-restart bit-equality against a cold run plus
   stale-stamp invalidation. *)

open Hca_serve
module Json = Hca_util.Json

let tmp_store name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hca_test_%s_%d.bin" name (Unix.getpid ()))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_verbs () =
  (match Protocol.request_of_line {|{"verb":"ping"}|} with
  | Ok Protocol.Ping -> ()
  | _ -> Alcotest.fail "ping");
  (match Protocol.request_of_line {|{"verb":"stats"}|} with
  | Ok Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats");
  (match Protocol.request_of_line {|{"verb":"shutdown"}|} with
  | Ok Protocol.Shutdown -> ()
  | _ -> Alcotest.fail "shutdown");
  (match Protocol.request_of_line {|{"verb":"status","id":3}|} with
  | Ok (Protocol.Status 3) -> ()
  | _ -> Alcotest.fail "status");
  (match Protocol.request_of_line {|{"verb":"result","id":7,"wait":true}|} with
  | Ok (Protocol.Result { id = 7; wait = true }) -> ()
  | _ -> Alcotest.fail "result wait");
  match Protocol.request_of_line {|{"verb":"cancel","id":1}|} with
  | Ok (Protocol.Cancel 1) -> ()
  | _ -> Alcotest.fail "cancel"

let test_protocol_submit () =
  match
    Protocol.request_of_line
      {|{"verb":"submit","kernel":"fir2dim","machine":{"n":4,"m":4,"k":4},"config":{"beam":2,"candidates":3,"spread":true,"fanin_cap":5},"priority":9,"deadline_s":1.5,"memo":false}|}
  with
  | Ok (Protocol.Submit s) ->
      (match s.Protocol.source with
      | Protocol.Named "fir2dim" -> ()
      | _ -> Alcotest.fail "source");
      Alcotest.(check (option (triple int int int)))
        "machine" (Some (4, 4, 4)) s.Protocol.machine;
      Alcotest.(check (option int)) "beam" (Some 2) s.Protocol.beam;
      Alcotest.(check (option int)) "candidates" (Some 3) s.Protocol.candidates;
      Alcotest.(check (option bool)) "spread" (Some true) s.Protocol.spread;
      Alcotest.(check (option int)) "fanin_cap" (Some 5) s.Protocol.fanin_cap;
      Alcotest.(check int) "priority" 9 s.Protocol.priority;
      Alcotest.(check (option (float 1e-9)))
        "deadline" (Some 1.5) s.Protocol.deadline_s;
      Alcotest.(check bool) "memo" false s.Protocol.memo
  | Ok _ -> Alcotest.fail "not a submit"
  | Error e -> Alcotest.fail e

let test_protocol_submit_machine_desc () =
  match
    Protocol.request_of_line
      {|{"verb":"submit","kernel":"fir2dim","machine_desc":"machine tiny\nlevel 2 4\nlevel 2 2\ncn_in_wires 2\ndma_ports 4\n"}|}
  with
  | Ok (Protocol.Submit s) ->
      Alcotest.(check (option (triple int int int)))
        "no shorthand machine" None s.Protocol.machine;
      let text = Option.get s.Protocol.machine_desc in
      (match Hca_machine.Machine_io.of_string text with
      | Ok m ->
          Alcotest.(check string) "name" "tiny" (Hca_machine.Machine_desc.name m);
          Alcotest.(check int) "cns" 4 (Hca_machine.Machine_desc.total_cns m)
      | Error e -> Alcotest.fail ("inline text should parse: " ^ e))
  | Ok _ -> Alcotest.fail "not a submit"
  | Error e -> Alcotest.fail e

let test_protocol_rejects () =
  let expect_error line =
    match Protocol.request_of_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" line
  in
  expect_error "not json at all";
  expect_error {|[1,2,3]|};
  expect_error {|{"no_verb":true}|};
  expect_error {|{"verb":"frobnicate"}|};
  expect_error {|{"verb":"status"}|};
  expect_error {|{"verb":"status","id":-1}|};
  expect_error {|{"verb":"submit"}|};
  expect_error {|{"verb":"submit","kernel":"a","gen_seed":1}|};
  expect_error {|{"verb":"submit","kernel":"a","deadline_s":-1}|};
  expect_error {|{"verb":"submit","kernel":"a","machine":{"n":0,"m":8,"k":8}}|};
  (* machine and machine_desc are mutually exclusive; the latter must
     be a string. *)
  expect_error
    {|{"verb":"submit","kernel":"a","machine":{"n":8,"m":8,"k":8},"machine_desc":"machine x\n"}|};
  expect_error {|{"verb":"submit","kernel":"a","machine_desc":42}|};
  (* A config value of the wrong type is an error, never dropped. *)
  List.iter
    (fun field ->
      List.iter
        (fun v ->
          expect_error
            (Printf.sprintf {|{"verb":"submit","kernel":"a","config":{"%s":%s}}|}
               field v))
        [ "2.5"; {|"4"|}; "null" ])
    [ "beam"; "candidates"; "fanin_cap" ];
  expect_error {|{"verb":"submit","kernel":"a","config":{"spread":1}}|};
  expect_error {|{"verb":"submit","kernel":"a","config":7}|};
  (* Every other optional field of the wrong type is refused too, and the
     message names it rather than a missing kernel source. *)
  let expect_named field line =
    match Protocol.request_of_line line with
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s names %s: %s" line field e)
          true
          (contains ~sub:(Printf.sprintf "\"%s\"" field) e)
    | Ok _ -> Alcotest.failf "accepted %s" line
  in
  List.iter
    (fun (field, line) -> expect_named field line)
    [
      ( "priority",
        {|{"verb":"submit","kernel":"fir2dim","memo":"no","priority":"high","trace":1}|}
      );
      ("priority", {|{"verb":"submit","kernel":"a","priority":"high"}|});
      ("memo", {|{"verb":"submit","kernel":"a","memo":"no"}|});
      ("trace", {|{"verb":"submit","kernel":"a","trace":1}|});
      ("gen_max_size", {|{"verb":"submit","gen_seed":3,"gen_max_size":"8"}|});
      ("kernel", {|{"verb":"submit","kernel":7}|});
      ("ddg", {|{"verb":"submit","ddg":["x"]}|});
      ("gen_seed", {|{"verb":"submit","gen_seed":"3"}|});
      ("wait", {|{"verb":"result","id":0,"wait":"yes"}|});
      ("format", {|{"verb":"metrics","format":1}|});
    ]

(* ------------------------------------------------------------------ *)
(* Job queue                                                           *)
(* ------------------------------------------------------------------ *)

let small_kernel seed = Daemon.gen_kernel ~seed ~max_size:(Some 6)

let quick_report () =
  Hca_core.Report.run Hca_machine.Dspfabric.reference (small_kernel 1)

let test_jobq_priority_order () =
  let q = Jobq.create () in
  let order = ref [] in
  let mk tag = fun ~id:_ ~deadline_s:_ ->
    order := tag :: !order;
    quick_report ()
  in
  let a = Jobq.submit q ~label:"a" ~priority:0 (mk "a") in
  let b = Jobq.submit q ~label:"b" ~priority:5 (mk "b") in
  let c = Jobq.submit q ~label:"c" ~priority:5 (mk "c") in
  let d = Jobq.submit q ~label:"d" ~priority:1 (mk "d") in
  while Jobq.pump q do () done;
  (* b and c share the top priority: FIFO between them; then d, then a. *)
  Alcotest.(check (list string)) "drain order" [ "b"; "c"; "d"; "a" ]
    (List.rev !order);
  List.iter
    (fun id ->
      match Jobq.state q id with
      | Some (Jobq.Finished (Jobq.Solved _)) -> ()
      | _ -> Alcotest.failf "job %d not solved" id)
    [ a; b; c; d ]

let test_jobq_cancel_and_expiry () =
  let q = Jobq.create () in
  let ran = ref false in
  let id =
    Jobq.submit q ~label:"x" (fun ~id:_ ~deadline_s:_ ->
        ran := true;
        quick_report ())
  in
  (match Jobq.cancel q id with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "cancel is terminal" true
    (Jobq.state q id = Some Jobq.Cancelled);
  (match Jobq.cancel q id with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double cancel accepted");
  Alcotest.(check bool) "cancelled job never ran" false !ran;
  Alcotest.(check bool) "cancelled job left the queue" false (Jobq.pump q);
  (* A zero deadline expires while queued: the work closure never runs. *)
  let id2 =
    Jobq.submit q ~label:"y" ~deadline_s:0. (fun ~id:_ ~deadline_s:_ ->
        ran := true;
        quick_report ())
  in
  Alcotest.(check bool) "expiry consumed a pump step" true (Jobq.pump q);
  Alcotest.(check bool) "expired without running" true
    (Jobq.state q id2 = Some (Jobq.Finished Jobq.Expired) && not !ran);
  (match Jobq.cancel q 999 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cancelled unknown id");
  let tot = Jobq.totals q in
  Alcotest.(check int) "cancelled counted" 1 tot.Jobq.cancelled;
  Alcotest.(check int) "expired counted" 1 tot.Jobq.expired

let test_jobq_crash_isolated () =
  let q = Jobq.create () in
  let id =
    Jobq.submit q ~label:"boom" (fun ~id:_ ~deadline_s:_ -> failwith "kaboom")
  in
  ignore (Jobq.pump q);
  match Jobq.state q id with
  | Some (Jobq.Finished (Jobq.Crashed msg)) ->
      Alcotest.(check bool) "message kept" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "crash not captured"

(* ------------------------------------------------------------------ *)
(* Report deadline semantics                                           *)
(* ------------------------------------------------------------------ *)

let test_report_deadline_partial () =
  let fabric = Hca_machine.Dspfabric.reference in
  let ddg = Hca_kernels.Registry.find "fir2dim" |> Option.get |> fun f -> f () in
  (* An expired budget must yield a structured timeout, never raise. *)
  let r = Hca_core.Report.run ~deadline_s:0. fabric ddg in
  Alcotest.(check bool) "timed_out set" true r.Hca_core.Report.timed_out;
  Alcotest.(check bool) "structured outcome" true
    (r.Hca_core.Report.legal || r.Hca_core.Report.error <> None);
  (* No deadline: flag stays clear on the same input. *)
  let r2 = Hca_core.Report.run fabric ddg in
  Alcotest.(check bool) "no deadline, no flag" false
    r2.Hca_core.Report.timed_out;
  Alcotest.(check bool) "full run legal" true r2.Hca_core.Report.legal

(* ------------------------------------------------------------------ *)
(* Daemon handler (in-process, no pool: deterministic pumping)         *)
(* ------------------------------------------------------------------ *)

let line_of = function
  | Daemon.Line s -> s
  | Daemon.Wait_for _ -> Alcotest.fail "unexpected deferred reply"
  | Daemon.Shutdown_after s -> s

let ok_json s =
  match Json.parse s with
  | Ok j ->
      Alcotest.(check (option bool))
        "ok field" (Some true)
        (Option.bind (Json.member "ok" j) Json.bool);
      j
  | Error e -> Alcotest.failf "bad response %S: %s" s e

let err_json s =
  match Json.parse s with
  | Ok j ->
      Alcotest.(check (option bool))
        "ok field" (Some false)
        (Option.bind (Json.member "ok" j) Json.bool);
      j
  | Error e -> Alcotest.failf "bad response %S: %s" s e

let jint j k = Option.get (Option.bind (Json.member k j) Json.int)

let jstr j k = Option.get (Option.bind (Json.member k j) Json.str)

let test_daemon_submit_result () =
  let t = Daemon.create () in
  let j =
    ok_json (line_of (Daemon.handle_line t {|{"verb":"submit","kernel":"fir2dim"}|}))
  in
  let id = jint j "id" in
  (* Not finished yet (nothing pumps without a pool): result without
     wait is a client error, with wait defers. *)
  ignore
    (err_json
       (line_of
          (Daemon.handle_line t
             (Printf.sprintf {|{"verb":"result","id":%d}|} id))));
  (match
     Daemon.handle_line t
       (Printf.sprintf {|{"verb":"result","id":%d,"wait":true}|} id)
   with
  | Daemon.Wait_for i -> Alcotest.(check int) "deferred id" id i
  | _ -> Alcotest.fail "expected Wait_for");
  ignore (Jobq.wait (Daemon.jobq t) id);
  let r = ok_json (Daemon.result_line t id) in
  Alcotest.(check string) "state" "done" (jstr r "state");
  Alcotest.(check string) "kernel" "fir2dim" (jstr r "kernel");
  Alcotest.(check bool) "legal" true
    (Option.get (Option.bind (Json.member "legal" r) Json.bool));
  Alcotest.(check bool) "invariant present" true
    (Json.member "invariant" r <> None);
  let st = ok_json (line_of (Daemon.handle_line t {|{"verb":"stats"}|})) in
  Alcotest.(check int) "submitted" 1 (jint st "submitted");
  Alcotest.(check int) "finished" 1 (jint st "finished");
  Alcotest.(check bool) "cache grew" true (jint st "cache_entries" > 0)

let test_daemon_rejects () =
  let t = Daemon.create () in
  ignore (err_json (line_of (Daemon.handle_line t "not json")));
  ignore (err_json (line_of (Daemon.handle_line t {|{"verb":"frobnicate"}|})));
  ignore
    (err_json (line_of (Daemon.handle_line t {|{"verb":"status","id":42}|})));
  ignore
    (err_json
       (line_of (Daemon.handle_line t {|{"verb":"submit","kernel":"nope"}|})));
  ignore
    (err_json
       (line_of (Daemon.handle_line t {|{"verb":"submit","ddg":"garbage"}|})));
  (* Out-of-range or mistyped search settings are refused at submit,
     naming the field: no job is queued and the store gains no entry. *)
  List.iter
    (fun field ->
      List.iter
        (fun v ->
          let line =
            Printf.sprintf
              {|{"verb":"submit","kernel":"fir2dim","config":{"%s":%s}}|}
              field v
          in
          let e = jstr (err_json (line_of (Daemon.handle_line t line))) "error" in
          Alcotest.(check bool)
            (Printf.sprintf "%s names config.%s: %s" line field e)
            true
            (contains ~sub:("config." ^ field) e))
        [ "0"; "-3"; "2.5" ])
    [ "beam"; "candidates"; "fanin_cap" ];
  (* Mistyped optional fields outside "config" likewise: the job must
     not run with the memo on, at priority 0 and untraced. *)
  let line =
    {|{"verb":"submit","kernel":"fir2dim","memo":"no","priority":"high","trace":1}|}
  in
  let e = jstr (err_json (line_of (Daemon.handle_line t line))) "error" in
  Alcotest.(check bool)
    (Printf.sprintf "%s names priority: %s" line e)
    true
    (contains ~sub:{|"priority"|} e);
  let st = ok_json (line_of (Daemon.handle_line t {|{"verb":"stats"}|})) in
  Alcotest.(check int) "nothing queued" 0 (jint st "submitted");
  Alcotest.(check int) "store untouched" 0 (jint st "cache_entries")

let test_daemon_cancel_and_shutdown () =
  let t = Daemon.create () in
  let j =
    ok_json
      (line_of (Daemon.handle_line t {|{"verb":"submit","gen_seed":3}|}))
  in
  let id = jint j "id" in
  let c =
    ok_json
      (line_of
         (Daemon.handle_line t (Printf.sprintf {|{"verb":"cancel","id":%d}|} id)))
  in
  Alcotest.(check string) "cancelled" "cancelled" (jstr c "state");
  let r = ok_json (Daemon.result_line t id) in
  Alcotest.(check string) "result of cancelled" "cancelled" (jstr r "state");
  (match Daemon.handle_line t {|{"verb":"shutdown"}|} with
  | Daemon.Shutdown_after _ -> ()
  | _ -> Alcotest.fail "expected Shutdown_after");
  (* Post-shutdown submissions are refused. *)
  ignore
    (err_json
       (line_of (Daemon.handle_line t {|{"verb":"submit","gen_seed":4}|})))

let test_daemon_deadline_expired_row () =
  let t = Daemon.create () in
  let j =
    ok_json
      (line_of
         (Daemon.handle_line t
            {|{"verb":"submit","gen_seed":5,"deadline_s":0}|}))
  in
  let id = jint j "id" in
  ignore (Jobq.wait (Daemon.jobq t) id);
  let r = ok_json (Daemon.result_line t id) in
  Alcotest.(check string) "deadline row" "deadline_exceeded" (jstr r "state")

(* Inline kernels are keyed by content, not by their given name: two
   different graphs must get different cache identities. *)
let test_daemon_inline_content_named () =
  let t = Daemon.create () in
  let submit ddg =
    let line =
      Json.to_string
        (Json.Obj
           [ ("verb", Json.Str "submit"); ("ddg", Json.Str ddg) ])
    in
    let j = ok_json (line_of (Daemon.handle_line t line)) in
    jstr j "kernel"
  in
  let g1 = Hca_ddg.Ddg_io.to_string (small_kernel 1) in
  let g2 = Hca_ddg.Ddg_io.to_string (small_kernel 2) in
  let n1 = submit g1 and n2 = submit g2 and n1' = submit g1 in
  Alcotest.(check bool) "different graphs, different names" true (n1 <> n2);
  Alcotest.(check string) "same graph, same name" n1 n1'

(* ------------------------------------------------------------------ *)
(* Persistent store                                                    *)
(* ------------------------------------------------------------------ *)

let run_one t line =
  let j = ok_json (line_of (Daemon.handle_line t line)) in
  let id = jint j "id" in
  ignore (Jobq.wait (Daemon.jobq t) id);
  ok_json (Daemon.result_line t id)

(* Two different kernels whose 32-bit display labels collide (both
   serve as [inline-#ebc839ae]), found by a birthday search over random
   12-instruction graphs.  Served one after the other through one
   memo, each must still get the answer a local run gives. *)
let colliding_texts =
  [
    {|ddg k
i 0 const:74 %0
i 1 sub %1
i 2 sub %2
i 3 store %3
i 4 load %4
i 5 abs %5
i 6 const:217 %6
i 7 add %7
i 8 const:130 %8
i 9 mov %9
i 10 sub %10
i 11 shl %11
e 0 1 1 0
e 0 2 1 0
e 2 3 1 0
e 1 3 1 0
e 0 4 1 0
e 1 5 1 0
e 4 5 3 0
e 6 7 1 0
e 4 9 3 0
e 3 9 1 0
e 9 10 1 0
e 2 10 1 0
e 1 11 1 0
e 7 11 1 0
e 4 1 3 2
e 1 1 1 1
|};
    {|ddg k
i 0 const:244 %0
i 1 max %1
i 2 max %2
i 3 store %3
i 4 xor %4
i 5 mov %5
i 6 store %6
i 7 sub %7
i 8 const:181 %8
i 9 max %9
i 10 load %10
i 11 load %11
e 0 1 1 0
e 0 1 1 0
e 0 2 1 0
e 0 3 1 0
e 2 3 1 0
e 2 4 1 0
e 2 4 1 0
e 1 5 1 0
e 3 5 1 0
e 1 6 1 0
e 5 6 1 0
e 6 7 1 0
e 3 7 1 0
e 4 9 1 0
e 6 10 1 0
e 9 11 1 0
e 3 1 1 2
e 6 4 1 2
|};
  ]

let test_daemon_label_collision () =
  let t = Daemon.create () in
  List.iter
    (fun text ->
      let line =
        Json.to_string
          (Json.Obj [ ("verb", Json.Str "submit"); ("ddg", Json.Str text) ])
      in
      let r = run_one t line in
      Alcotest.(check string) "colliding label" "inline-#ebc839ae"
        (jstr r "kernel");
      let local =
        Hca_core.Report.run ~jobs:1 Hca_machine.Dspfabric.reference
          (Result.get_ok (Hca_ddg.Ddg_io.of_string text))
      in
      Alcotest.(check string) "served = local"
        (Hca_core.Report.invariant_string local)
        (jstr r "invariant"))
    colliding_texts

let test_daemon_machine_desc () =
  let t = Daemon.create () in
  (* An inline [.machine] description carries the whole topology —
     heterogeneous table included — through the wire protocol. *)
  let r =
    run_one t
      {|{"verb":"submit","gen_seed":2,"machine_desc":"machine wide\nlevel 2 4\nlevel 2 4\ncn_in_wires 2\ndma_ports 4\ncn 0-1 2 1\n"}|}
  in
  Alcotest.(check string) "state" "done" (jstr r "state");
  Alcotest.(check string) "runs on the inline machine" "wide"
    (jstr r "machine");
  (* A description that fails to parse is rejected with its position. *)
  match
    Daemon.handle_line t
      {|{"verb":"submit","gen_seed":2,"machine_desc":"machine wide\nlevel 0 4\n"}|}
  with
  | Daemon.Line l ->
      let e = err_json l in
      let err = jstr e "error" in
      let has_pos =
        let sub = "line 2" in
        let n = String.length err and k = String.length sub in
        let rec go i = i + k <= n && (String.sub err i k = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "parse error carries its position" true has_pos
  | _ -> Alcotest.fail "expected an immediate rejection"

let test_store_warm_restart_bit_equal () =
  let path = tmp_store "warm" in
  if Sys.file_exists path then Sys.remove path;
  let submit = {|{"verb":"submit","kernel":"fir2dim"}|} in
  (* Cold lifetime. *)
  let a = Daemon.create ~store_path:path () in
  Alcotest.(check int) "cold start" 0 (Daemon.loaded_entries a);
  let ra = run_one a submit in
  (match Daemon.flush_store a with
  | Ok (Some n) -> Alcotest.(check bool) "entries flushed" true (n > 0)
  | _ -> Alcotest.fail "flush failed");
  (* Warm lifetime: inherits the store, answers bit-identically. *)
  let b = Daemon.create ~store_path:path () in
  Alcotest.(check bool) "warm start" true (Daemon.loaded_entries b > 0);
  let rb = run_one b submit in
  Alcotest.(check string) "bit-identical across lifetimes"
    (jstr ra "invariant") (jstr rb "invariant");
  Alcotest.(check bool) "warm run hit the store" true
    (jint rb "cache_hits" > 0);
  Alcotest.(check int) "warm run missed nothing" 0 (jint rb "cache_misses");
  Sys.remove path

let test_store_stale_stamp_invalidation () =
  let path = tmp_store "stale" in
  if Sys.file_exists path then Sys.remove path;
  let a = Daemon.create ~store_path:path ~stamp:"stamp-A" () in
  ignore (run_one a {|{"verb":"submit","gen_seed":11}|});
  (match Daemon.flush_store a with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "flush failed");
  (* Same stamp: loads. *)
  let b = Daemon.create ~store_path:path ~stamp:"stamp-A" () in
  Alcotest.(check bool) "same stamp loads" true (Daemon.loaded_entries b > 0);
  (* Different stamp: the whole file is discarded, cold start. *)
  let c = Daemon.create ~store_path:path ~stamp:"stamp-B" () in
  Alcotest.(check int) "stale stamp discarded" 0 (Daemon.loaded_entries c);
  (* Direct load mirrors both verdicts. *)
  (match Store.load ~path ~stamp:"stamp-A" with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "expected a snapshot");
  (match Store.load ~path ~stamp:"stamp-B" with
  | Ok None -> ()
  | _ -> Alcotest.fail "expected stale rejection");
  Sys.remove path

(* The default stamp names the build, not the working directory: an
   [hca serve] started inside the checkout and one started outside any
   checkout report the same stamp, so neither discards the other's
   store. *)
let test_store_stamp_independent_of_cwd () =
  let hca =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/hca_cli.exe"
  in
  let stamp_from dir =
    let here = Sys.getcwd () in
    Sys.chdir dir;
    let ic, oc =
      Fun.protect
        ~finally:(fun () -> Sys.chdir here)
        (fun () -> Unix.open_process_args hca [| hca; "serve"; "--stdio" |])
    in
    output_string oc "{\"verb\":\"stats\"}\n";
    close_out oc;
    let line = input_line ic in
    ignore (Unix.close_process (ic, oc));
    match Option.bind (Result.to_option (Json.parse line)) (Json.member "stamp") with
    | Some (Json.Str stamp) -> stamp
    | _ -> Alcotest.failf "no stamp in %s" line
  in
  let inside = stamp_from (Sys.getcwd ()) in
  let outside = stamp_from (Filename.get_temp_dir_name ()) in
  Alcotest.(check string) "same stamp in and outside the checkout" inside outside;
  Alcotest.(check string) "the library's default" (Store.default_stamp ()) inside

let test_store_corrupt_and_missing () =
  let path = tmp_store "corrupt" in
  (match Store.load ~path:(path ^ ".nope") ~stamp:"s" with
  | Ok None -> ()
  | _ -> Alcotest.fail "missing file should be a cold start");
  let oc = open_out_bin path in
  output_string oc "definitely not a store\n";
  close_out oc;
  (match Store.load ~path ~stamp:"s" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt store accepted");
  (* A corrupt store must not kill the daemon: it warns and starts cold. *)
  let t = Daemon.create ~store_path:path () in
  Alcotest.(check int) "daemon survives corruption" 0 (Daemon.loaded_entries t);
  Sys.remove path

(* Every reader after the search answers the same from a record that
   went through the store: one run fills a fresh cache, the cache goes
   through [Store.save], [Store.load] and [Hierarchy.restore], and a
   second run is served from the restored cache alone. *)
let prop_record_survives_store =
  QCheck.Test.make ~count:10
    ~name:"memo records survive the store and answer every reader the same"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let module H = Hca_core.Hierarchy in
      let module R = Hca_core.Report in
      let ddg = Hca_gen.Gen.ddg ~seed () in
      let path = tmp_store "record" in
      let readers (r : R.t) =
        ( R.invariant_string r,
          Option.map
            (fun res ->
              ( Hca_core.Metrics.of_result res,
                Hca_core.Coherency.check res,
                Hca_core.Topology.of_result res ))
            r.R.result )
      in
      let survives fabric =
        let cache = H.create_cache () in
        let first = R.run ~jobs:1 ~cache fabric ddg in
        (match Store.save ~path ~stamp:"prop" (H.snapshot cache) with
        | Ok _ -> ()
        | Error e -> failwith e);
        let restored =
          match Store.load ~path ~stamp:"prop" with
          | Ok (Some snap) -> H.restore snap
          | Ok None -> failwith "store not found"
          | Error e -> failwith e
        in
        Sys.remove path;
        let second = R.run ~jobs:1 ~cache:restored fabric ddg in
        readers first = readers second
        && second.R.cache_hits > 0
        && second.R.cache_misses = 0
      in
      survives Hca_machine.Dspfabric.reference
      && survives (Hca_gen.Gen.fabric ~seed ()))

(* No file contents can stop the daemon: a store with any one byte
   flipped, or cut at any length, is refused and counted, and the
   daemon serves the cold answer. *)
let test_store_corruption_starts_cold () =
  let path = tmp_store "damaged" in
  if Sys.file_exists path then Sys.remove path;
  let submit = {|{"verb":"submit","gen_seed":3}|} in
  let a = Daemon.create ~store_path:path () in
  let cold = jstr (run_one a submit) "invariant" in
  (match Daemon.flush_store a with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "flush failed");
  let good = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length good in
  let starts_cold label bytes =
    Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
    match Daemon.create ~store_path:path () with
    | exception e ->
        Alcotest.failf "%s: Daemon.create raised %s" label
          (Printexc.to_string e)
    | t ->
        let stats = ok_json (line_of (Daemon.handle_line t {|{"verb":"stats"}|})) in
        Alcotest.(check int) (label ^ ": nothing loaded") 0
          (jint stats "loaded_entries");
        Alcotest.(check int) (label ^ ": one store rejected") 1
          (jint stats "store_rejected");
        Alcotest.(check string) (label ^ ": the cold answer") cold
          (jstr (run_one t submit) "invariant")
  in
  (* Every byte of the four header lines, then payload bytes spread
     over the file; every cut short of the header's end, then cuts
     spread over the payload. *)
  let header =
    let rec nth_newline i k =
      if k = 0 then i else nth_newline (String.index_from good i '\n' + 1) (k - 1)
    in
    nth_newline 0 4
  in
  let spread k = List.init k (fun i -> header + (i * (n - header) / k)) in
  List.iter
    (fun off ->
      let b = Bytes.of_string good in
      Bytes.set b off (Char.chr (Char.code good.[off] lxor 0xff));
      starts_cold (Printf.sprintf "byte %d flipped" off) (Bytes.to_string b))
    (List.init header Fun.id @ spread 40 @ [ n - 1 ]);
  List.iter
    (fun len ->
      starts_cold (Printf.sprintf "cut at %d" len) (String.sub good 0 len))
    (List.init header Fun.id @ spread 30 @ [ n - 1 ]);
  Sys.remove path

(* The committed records keep a fir2dim store small: one lifetime of
   [hca serve --stdio] used to write 102,006 bytes. *)
let test_store_size_pin () =
  let path = tmp_store "size" in
  if Sys.file_exists path then Sys.remove path;
  let hca =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/hca_cli.exe"
  in
  let ic, oc =
    Unix.open_process_args hca [| hca; "serve"; "--stdio"; "--store"; path |]
  in
  output_string oc
    "{\"verb\":\"submit\",\"kernel\":\"fir2dim\"}\n\
     {\"verb\":\"result\",\"id\":0,\"wait\":true}\n\
     {\"verb\":\"shutdown\"}\n";
  close_out oc;
  ignore (In_channel.input_all ic);
  ignore (Unix.close_process (ic, oc));
  let size = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  Alcotest.(check bool)
    (Printf.sprintf "store of %d bytes, at most 55%% of 102,006" size)
    true
    (size > 0 && size * 100 <= 102_006 * 55)

(* ------------------------------------------------------------------ *)
(* Telemetry: the metrics verb, per-request traces, the flight         *)
(* recorder, and the extended stats fields.  The registry and the      *)
(* flight ring are process-global, so every test here clears / disarms *)
(* what it armed.                                                      *)
(* ------------------------------------------------------------------ *)

module Obs = Hca_obs.Obs

let with_clean_registry f =
  Obs.Registry.clear ();
  Fun.protect ~finally:Obs.Registry.clear f

let tmp_dir name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hca_test_%s_%d" name (Unix.getpid ()))

let jnum j k = Option.get (Option.bind (Json.member k j) Json.num)

let test_metrics_verb_roundtrip () =
  with_clean_registry (fun () ->
      let t = Daemon.create () in
      ignore (run_one t {|{"verb":"submit","kernel":"fir2dim"}|});
      (* JSON exposition: the daemon's own counters and latency
         histogram come back through the protocol parser. *)
      let j =
        ok_json (line_of (Daemon.handle_line t {|{"verb":"metrics"}|}))
      in
      let m = Option.get (Json.member "metrics" j) in
      let counters = Option.get (Json.member "counters" m) in
      let cnt k = Option.bind (Json.member k counters) Json.int in
      Alcotest.(check (option int)) "submissions counted" (Some 1)
        (cnt "hca_jobs_submitted_total");
      Alcotest.(check (option int)) "solved outcome counted" (Some 1)
        (cnt {|hca_jobs_done_total{outcome="solved"}|});
      Alcotest.(check (option int)) "per-verb request counter" (Some 1)
        (cnt {|hca_requests_total{verb="submit"}|});
      let hists = Option.get (Json.member "histograms" m) in
      (match Json.member "hca_request_latency_ms" hists with
      | Some h ->
          Alcotest.(check (option int)) "latency samples" (Some 1)
            (Option.bind (Json.member "count" h) Json.int)
      | None -> Alcotest.fail "latency histogram missing");
      (* Prometheus exposition: typed, and every sample line parses. *)
      let p =
        ok_json
          (line_of
             (Daemon.handle_line t {|{"verb":"metrics","format":"prometheus"}|}))
      in
      Alcotest.(check string) "format tag" "prometheus" (jstr p "format");
      let text = jstr p "prometheus" in
      Alcotest.(check bool) "TYPE lines present" true
        (contains ~sub:"# TYPE hca_jobs_submitted_total counter" text);
      Alcotest.(check bool) "histogram series present" true
        (contains ~sub:"hca_request_latency_ms_bucket{le=" text);
      List.iter
        (fun line ->
          if line <> "" && line.[0] <> '#' then
            match String.rindex_opt line ' ' with
            | None -> Alcotest.failf "no sample value on %S" line
            | Some i ->
                let v =
                  String.sub line (i + 1) (String.length line - i - 1)
                in
                if float_of_string_opt v = None then
                  Alcotest.failf "unparseable sample on %S" line)
        (String.split_on_char '\n' text))

let test_trace_request_and_bit_equal () =
  with_clean_registry (fun () ->
      let tel =
        { Daemon.default_telemetry with Daemon.trace_dir = tmp_dir "traces" }
      in
      let t = Daemon.create ~telemetry:tel () in
      let j =
        ok_json
          (line_of
             (Daemon.handle_line t
                {|{"verb":"submit","kernel":"fir2dim","trace":true}|}))
      in
      let id = jint j "id" in
      ignore (Jobq.wait (Daemon.jobq t) id);
      let traced = ok_json (Daemon.result_line t id) in
      let file = Daemon.trace_file t id in
      Alcotest.(check bool) "trace file written" true (Sys.file_exists file);
      (match Hca_obs.Trace_check.validate_file file with
      | Error e -> Alcotest.failf "invalid request trace: %s" e
      | Ok stats ->
          Alcotest.(check bool) "capture has events" true
            (stats.Hca_obs.Trace_check.events > 0);
          (* The capture wraps the whole work closure, so the search's
             own top-level span must be inside. *)
          match
            List.assoc_opt "report.run" stats.Hca_obs.Trace_check.span_names
          with
          | Some n when n > 0 -> ()
          | _ -> Alcotest.fail "report.run span missing from request trace");
      Alcotest.(check int) "trace file counted" 1
        (Obs.Registry.counter "hca_trace_files_total");
      Sys.remove file;
      (* The identical submission with telemetry entirely off answers
         bit-identically: recording never influences the search. *)
      let plain = Daemon.create () in
      let untraced = run_one plain {|{"verb":"submit","kernel":"fir2dim"}|} in
      Alcotest.(check string) "traced vs untraced bit-equal"
        (jstr untraced "invariant") (jstr traced "invariant"))

let test_flight_dump_on_crash () =
  with_clean_registry (fun () ->
      let dir = tmp_dir "flight" in
      let tel =
        {
          Daemon.default_telemetry with
          Daemon.trace_dir = dir;
          flight = true;
          flight_capacity = 256;
        }
      in
      let t = Daemon.create ~telemetry:tel () in
      Fun.protect ~finally:Obs.Ring.disarm (fun () ->
          Alcotest.(check bool) "create armed the ring" true (Obs.Ring.armed ());
          let id =
            Daemon.inject t ~label:"boom" (fun ~deadline_s:_ ->
                failwith "kaboom")
          in
          ignore (Jobq.wait (Daemon.jobq t) id);
          (match Jobq.state (Daemon.jobq t) id with
          | Some (Jobq.Finished (Jobq.Crashed _)) -> ()
          | _ -> Alcotest.fail "expected a crash");
          let file =
            Filename.concat dir (Printf.sprintf "flight-%d.json" id)
          in
          Alcotest.(check bool) "flight dump written" true
            (Sys.file_exists file);
          (match Hca_obs.Trace_check.validate_file file with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "invalid flight dump: %s" e);
          Alcotest.(check int) "dump counted" 1
            (Obs.Registry.counter "hca_flight_dumps_total");
          Sys.remove file))

let test_flight_dump_on_slow () =
  with_clean_registry (fun () ->
      let dir = tmp_dir "slow" in
      let tel =
        {
          Daemon.default_telemetry with
          Daemon.trace_dir = dir;
          flight = true;
          slow_ms = Some 0.;
        }
      in
      let t = Daemon.create ~telemetry:tel () in
      Fun.protect ~finally:Obs.Ring.disarm (fun () ->
          (* Any successful job has positive latency, so slow_ms = 0
             trips the dump without needing an actually slow kernel. *)
          let id =
            Daemon.inject t ~label:"slow" (fun ~deadline_s:_ ->
                quick_report ())
          in
          ignore (Jobq.wait (Daemon.jobq t) id);
          (match Jobq.state (Daemon.jobq t) id with
          | Some (Jobq.Finished (Jobq.Solved _)) -> ()
          | _ -> Alcotest.fail "slow job should still solve");
          let file =
            Filename.concat dir (Printf.sprintf "flight-%d.json" id)
          in
          Alcotest.(check bool) "slow-ms tripped a dump" true
            (Sys.file_exists file);
          (match Hca_obs.Trace_check.validate_file file with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "invalid flight dump: %s" e);
          Sys.remove file))

let test_stats_telemetry_fields () =
  with_clean_registry (fun () ->
      let t = Daemon.create () in
      ignore (run_one t {|{"verb":"submit","gen_seed":7}|});
      let st = ok_json (line_of (Daemon.handle_line t {|{"verb":"stats"}|})) in
      let p50 = jnum st "latency_p50_ms" in
      let p99 = jnum st "latency_p99_ms" in
      Alcotest.(check bool) "latency quantiles populated and ordered" true
        (p50 >= 0. && p99 >= p50);
      Alcotest.(check int) "trace_files" 0 (jint st "trace_files");
      Alcotest.(check int) "flight_dumps" 0 (jint st "flight_dumps"))

(* ------------------------------------------------------------------ *)

(* The load-test client computes its percentiles itself: a trace the
   caller recorded before the run survives it, and the tracer stays
   off. *)
let test_loadtest_leaves_tracer_alone () =
  let hca =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/hca_cli.exe"
  in
  let socket = tmp_dir "loadtest" ^ ".sock" in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process hca
      [| hca; "serve"; "--socket"; socket; "-j"; "1" |]
      Unix.stdin null null
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.kill pid Sys.sigterm;
      ignore (Unix.waitpid [] pid);
      Unix.close null;
      if Sys.file_exists socket then Sys.remove socket;
      Obs.reset ())
    (fun () ->
      Obs.reset ();
      Obs.enable ();
      Obs.span "test.before" ignore;
      Obs.disable ();
      let before = Obs.events () in
      (match Loadtest.run ~path:socket ~count:2 ~jobs:1 ~max_size:6 () with
      | Ok s -> Alcotest.(check int) "both served" 2 s.Loadtest.ok
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "tracer still off" false (Obs.enabled ());
      Alcotest.(check bool) "earlier trace intact" true (Obs.events () = before))

(* [verify] compares a served report with a local unbounded run, which
   a deadline-cut report ([timed_out]: the best attempt finished before
   a wall-clock cut-off) need not match.  Such a report is counted as
   not verifiable, never as a mismatch — even when it differs; the same
   report not cut short is compared. *)
let test_loadtest_skips_deadline_cut () =
  let seed = 3 and max_size = Some 6 in
  let local =
    Hca_core.Report.run ~jobs:1 Hca_machine.Dspfabric.reference
      (Daemon.gen_kernel ~seed ~max_size)
  in
  let served report =
    { Loadtest.seed; kernel = "k"; state = "done"; report; latency_s = 0. }
  in
  let verdict = Loadtest.verify_served ~max_size in
  let show = function
    | Loadtest.Identical -> "identical"
    | Differs -> "differs"
    | Unverifiable -> "unverifiable"
    | Unreported -> "unreported"
  in
  let cut =
    { local with Hca_core.Report.timed_out = true; placement = local.placement + 1 }
  in
  Alcotest.(check string) "deadline-cut" "unverifiable" (show (verdict (served (Some cut))));
  Alcotest.(check string) "same report, complete" "identical"
    (show (verdict (served (Some local))));
  Alcotest.(check string) "other report, complete" "differs"
    (show (verdict (served (Some { local with placement = local.placement + 1 }))));
  Alcotest.(check string) "no report" "unreported" (show (verdict (served None)))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "verbs" `Quick test_protocol_verbs;
          Alcotest.test_case "submit" `Quick test_protocol_submit;
          Alcotest.test_case "submit machine_desc" `Quick
            test_protocol_submit_machine_desc;
          Alcotest.test_case "rejects" `Quick test_protocol_rejects;
        ] );
      ( "jobq",
        [
          Alcotest.test_case "priority order" `Quick test_jobq_priority_order;
          Alcotest.test_case "cancel and expiry" `Quick
            test_jobq_cancel_and_expiry;
          Alcotest.test_case "crash isolated" `Quick test_jobq_crash_isolated;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "report partial best-so-far" `Quick
            test_report_deadline_partial;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "submit/result" `Quick test_daemon_submit_result;
          Alcotest.test_case "rejects" `Quick test_daemon_rejects;
          Alcotest.test_case "cancel + shutdown" `Quick
            test_daemon_cancel_and_shutdown;
          Alcotest.test_case "deadline row" `Quick
            test_daemon_deadline_expired_row;
          Alcotest.test_case "inline content naming" `Quick
            test_daemon_inline_content_named;
          Alcotest.test_case "colliding labels served apart" `Quick
            test_daemon_label_collision;
          Alcotest.test_case "inline machine description" `Quick
            test_daemon_machine_desc;
        ] );
      ( "store",
        [
          Alcotest.test_case "warm restart bit-equal" `Quick
            test_store_warm_restart_bit_equal;
          Alcotest.test_case "stale stamp invalidation" `Quick
            test_store_stale_stamp_invalidation;
          Alcotest.test_case "corrupt and missing" `Quick
            test_store_corrupt_and_missing;
          Alcotest.test_case "stamp independent of cwd" `Quick
            test_store_stamp_independent_of_cwd;
          Alcotest.test_case "damaged store starts cold" `Quick
            test_store_corruption_starts_cold;
          Alcotest.test_case "fir2dim store size" `Quick test_store_size_pin;
          QCheck_alcotest.to_alcotest prop_record_survives_store;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "metrics verb roundtrip" `Quick
            test_metrics_verb_roundtrip;
          Alcotest.test_case "request trace + bit-equal" `Quick
            test_trace_request_and_bit_equal;
          Alcotest.test_case "flight dump on crash" `Quick
            test_flight_dump_on_crash;
          Alcotest.test_case "flight dump on slow-ms" `Quick
            test_flight_dump_on_slow;
          Alcotest.test_case "stats telemetry fields" `Quick
            test_stats_telemetry_fields;
        ] );
      ( "loadtest",
        [
          Alcotest.test_case "leaves the tracer alone" `Quick
            test_loadtest_leaves_tracer_alone;
          Alcotest.test_case "verify skips deadline-cut reports" `Quick
            test_loadtest_skips_deadline_cut;
        ] );
    ]
