module Report = Hca_core.Report
module Hierarchy = Hca_core.Hierarchy
module Config = Hca_core.Config
module Dspfabric = Hca_machine.Dspfabric
module Ddg = Hca_ddg.Ddg
module Ddg_io = Hca_ddg.Ddg_io
module Obs = Hca_obs.Obs
module Log = Hca_obs.Obs.Log
module Registry = Hca_obs.Obs.Registry
module Json = Hca_util.Json

type telemetry = {
  trace_dir : string;
  trace_sample : int;
  slow_ms : float option;
  flight : bool;
  flight_capacity : int;
}

let default_telemetry =
  {
    trace_dir = Filename.concat (Filename.get_temp_dir_name ()) "hca-traces";
    trace_sample = 0;
    slow_ms = None;
    flight = false;
    flight_capacity = 4096;
  }

type t = {
  q : Jobq.t;
  cache : Hierarchy.cache;
  store_path : string option;
  stamp : string;
  loaded : int;
  rejected : int;  (* store files refused at startup: 0 or 1 *)
  started_s : float;
  tel : telemetry;
  mutable stopping : bool;
}

type reply =
  | Line of string
  | Wait_for of int
  | Shutdown_after of string

let rec ensure_dir d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

let trace_file t id =
  Filename.concat t.tel.trace_dir (Printf.sprintf "req-%d.json" id)

let flight_file t id =
  Filename.concat t.tel.trace_dir (Printf.sprintf "flight-%d.json" id)

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing                                                  *)

let outcome_label = function
  | Jobq.Expired -> "expired"
  | Jobq.Crashed _ -> "crashed"
  | Jobq.Solved r ->
      if r.Report.timed_out then "timed_out"
      else if r.Report.legal && r.Report.error = None then "solved"
      else "failed"

let set_queue_gauges t =
  Registry.set "hca_queue_depth" (float_of_int (Jobq.queued t.q));
  Registry.set "hca_jobs_inflight" (float_of_int (Jobq.running t.q))

(* Every lifecycle transition lands here (from the acting domain,
   outside the queue lock): registry counters + gauges, a structured
   log line, and — for crashed / expired / timed-out / slow jobs — a
   flight-recorder dump named by request id. *)
let on_job_event t ev =
  (match ev with
  | Jobq.Submitted { id; label; priority } ->
      Registry.inc "hca_jobs_submitted_total";
      Log.info "job.submit" ~req:id
        [ ("kernel", Log.S label); ("priority", Log.I priority) ]
  | Jobq.Started { id; label; wait_s } ->
      Log.debug "job.start" ~req:id
        [ ("kernel", Log.S label); ("wait_ms", Log.F (wait_s *. 1000.)) ]
  | Jobq.Cancelled_job { id; label; latency_s } ->
      Registry.inc "hca_jobs_cancelled_total";
      Log.info "job.cancel" ~req:id
        [ ("kernel", Log.S label); ("latency_ms", Log.F (latency_s *. 1000.)) ]
  | Jobq.Done { id; label; outcome; latency_s; run_s } ->
      let olabel = outcome_label outcome in
      Registry.inc (Printf.sprintf "hca_jobs_done_total{outcome=\"%s\"}" olabel);
      Registry.observe "hca_request_latency_ms" (latency_s *. 1000.);
      Registry.observe "hca_request_run_ms" (run_s *. 1000.);
      (match outcome with
      | Jobq.Solved r ->
          Registry.inc ~by:r.Report.cache_hits "hca_memo_hits_total";
          Registry.inc ~by:r.Report.cache_misses "hca_memo_misses_total"
      | Jobq.Expired | Jobq.Crashed _ -> ());
      let slow =
        match t.tel.slow_ms with
        | Some ms -> latency_s *. 1000. > ms
        | None -> false
      in
      let bad =
        match outcome with
        | Jobq.Expired | Jobq.Crashed _ -> true
        | Jobq.Solved r -> r.Report.timed_out
      in
      let level =
        match outcome with
        | Jobq.Crashed _ -> Log.Error
        | _ when bad || slow -> Log.Warn
        | _ -> Log.Info
      in
      Log.log level "job.finish" ~req:id
        ([
           ("kernel", Log.S label);
           ("outcome", Log.S olabel);
           ("latency_ms", Log.F (latency_s *. 1000.));
           ("run_ms", Log.F (run_s *. 1000.));
         ]
        @
        match outcome with
        | Jobq.Crashed e -> [ ("error", Log.S e) ]
        | _ -> []);
      if t.tel.flight && (bad || slow) then begin
        let file = flight_file t id in
        let reason = if bad then olabel else "slow" in
        try
          ensure_dir t.tel.trace_dir;
          Obs.Ring.write
            ~meta:
              [
                ("request", string_of_int id);
                ("kernel", label);
                ("reason", reason);
              ]
            file;
          Registry.inc "hca_flight_dumps_total";
          Log.warn "flight.dump" ~req:id
            [ ("file", Log.S file); ("reason", Log.S reason) ]
        with Sys_error e ->
          Log.warn "flight.error" ~req:id [ ("error", Log.S e) ]
      end);
  set_queue_gauges t

let create ?pool ?on_finish ?store_path ?stamp
    ?(telemetry = default_telemetry) () =
  let stamp =
    match stamp with Some s -> s | None -> Store.default_stamp ()
  in
  if telemetry.flight then
    Obs.Ring.arm ~capacity:telemetry.flight_capacity ();
  (* Whatever the store file holds, the daemon starts: a file it cannot
     use is reported and counted, and the cache starts cold. *)
  let cache, loaded, rejected =
    match store_path with
    | None -> (Hierarchy.create_cache (), 0, 0)
    | Some path -> (
        let reject why =
          Printf.eprintf "hca serve: ignoring memo store %s: %s\n%!" path why;
          Log.warn "store.reject" [ ("path", Log.S path); ("error", Log.S why) ];
          (Hierarchy.create_cache (), 0, 1)
        in
        match Store.load ~path ~stamp with
        | Ok (Some snap) ->
            let n = Hierarchy.snapshot_length snap in
            Log.info "store.load" [ ("path", Log.S path); ("entries", Log.I n) ];
            (Hierarchy.restore snap, n, 0)
        | Ok None when Sys.file_exists path ->
            reject "written by another build (stale stamp)"
        | Ok None ->
            Log.info "store.load"
              [ ("path", Log.S path); ("entries", Log.I 0) ];
            (Hierarchy.create_cache (), 0, 0)
        | Error e -> reject e)
  in
  (* The observer needs the daemon (gauges read the queue); tie the
     knot through a cell — no event can fire before [create] returns. *)
  let tref = ref None in
  let on_event ev = Option.iter (fun t -> on_job_event t ev) !tref in
  let t =
    {
      q = Jobq.create ?pool ?on_finish ~on_event ();
      cache;
      store_path;
      stamp;
      loaded;
      rejected;
      started_s = Hca_util.Clock.now ();
      tel = telemetry;
      stopping = false;
    }
  in
  tref := Some t;
  t

let jobq t = t.q

let cache_entries t = Hierarchy.cache_length t.cache

let loaded_entries t = t.loaded

let flush_store t =
  match t.store_path with
  | None -> Ok None
  | Some path -> (
      match Store.save ~path ~stamp:t.stamp (Hierarchy.snapshot t.cache) with
      | Ok n ->
          Log.info "store.flush" [ ("path", Log.S path); ("entries", Log.I n) ];
          Ok (Some n)
      | Error e ->
          Log.warn "store.error" [ ("error", Log.S e) ];
          Error e)

(* Wrap a job's work in a per-request capture when this request is
   traced — explicitly ([trace:true]) or by the 1-in-N sampler.  The
   capture brackets only the solver (one worker domain, [jobs:1]), so
   the stream is the complete request trace; the file is written even
   when the work crashes.  Nothing here touches the report. *)
let instrument t ~trace ~label work ~id ~deadline_s =
  let tel = t.tel in
  let traced =
    trace || (tel.trace_sample > 0 && id mod tel.trace_sample = 0)
  in
  if not traced then work ~deadline_s
  else begin
    Obs.Capture.start ();
    Fun.protect
      ~finally:(fun () ->
        let evs = Obs.Capture.stop () in
        let file = trace_file t id in
        try
          ensure_dir tel.trace_dir;
          Obs.Capture.write
            ~meta:[ ("request", string_of_int id); ("kernel", label) ]
            file evs;
          Registry.inc "hca_trace_files_total";
          Log.info "trace.write" ~req:id [ ("file", Log.S file) ]
        with Sys_error e ->
          Log.warn "trace.error" ~req:id [ ("error", Log.S e) ])
      (fun () -> work ~deadline_s)
  end

let inject t ~label ?priority ?deadline_s ?(trace = false) work =
  Jobq.submit t.q ~label ?priority ?deadline_s
    (instrument t ~trace ~label work)

(* ------------------------------------------------------------------ *)
(* Kernel-source resolution                                            *)

(* Kernels that are not registry entries are labelled by a 32-bit
   digest of their text, so that replies, logs and loadtest rows name
   them stably.  Labels can collide; the memo keys on
   [Ddg.content_id], never on the label alone. *)
let content_name prefix ddg =
  let h = Hca_util.Sig_hash.create () in
  Hca_util.Sig_hash.add_string h (Ddg_io.to_string ddg);
  Ddg.with_name ddg
    (Printf.sprintf "%s#%08x" prefix (Hca_util.Sig_hash.value h land 0xffffffff))

let gen_kernel ~seed ~max_size =
  let knobs =
    match max_size with
    | None -> Hca_gen.Gen.default_ddg_knobs
    | Some m ->
        let m = max 2 m in
        let d = Hca_gen.Gen.default_ddg_knobs in
        { d with Hca_gen.Gen.max_size = m; min_size = min d.Hca_gen.Gen.min_size m }
  in
  content_name
    (Printf.sprintf "gen-%d-" seed)
    (Hca_gen.Gen.ddg ~knobs ~seed ())

let resolve_source = function
  | Protocol.Named name -> (
      match Hca_kernels.Registry.find name with
      | Some build -> Ok (build ())
      | None ->
          Error
            (Printf.sprintf "unknown kernel %S (known: %s)" name
               (String.concat ", " Hca_kernels.Registry.sorted)))
  | Protocol.Inline text -> (
      match Ddg_io.of_string text with
      | Ok ddg -> Ok (content_name "inline-" ddg)
      | Error e -> Error ("bad inline ddg: " ^ e))
  | Protocol.Gen { seed; max_size } -> Ok (gen_kernel ~seed ~max_size)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let num i = Json.Num (float_of_int i)

let state_name = function
  | Jobq.Queued -> "queued"
  | Jobq.Running -> "running"
  | Jobq.Cancelled -> "cancelled"
  | Jobq.Finished Jobq.Expired -> "deadline_exceeded"
  | Jobq.Finished (Jobq.Crashed _) -> "failed"
  | Jobq.Finished (Jobq.Solved r) ->
      if r.Report.timed_out then "deadline_exceeded"
      else if r.Report.legal && r.Report.error = None then "done"
      else "failed"

let report_fields (r : Report.t) =
  [
    ("kernel", Json.Str r.kernel);
    ("machine", Json.Str r.machine);
    ("n_instr", num r.n_instr);
    ("legal", Json.Bool r.legal);
    ( "final_mii",
      match r.final_mii with None -> Json.Null | Some m -> num m );
    ("ii_used", num r.ii_used);
    ("copies", num r.copies);
    ("forwards", num r.forwards);
    ("max_wire_load", num r.max_wire_load);
    ("cache_hits", num r.cache_hits);
    ("cache_misses", num r.cache_misses);
    ("timed_out", Json.Bool r.timed_out);
    ("runtime_s", Json.Num r.runtime_s);
    ("invariant", Json.Str (Report.invariant_string r));
  ]
  @ match r.error with None -> [] | Some e -> [ ("error", Json.Str e) ]

let result_line t id =
  let base st = (("id", num id), ("state", Json.Str (state_name st))) in
  match Jobq.state t.q id with
  | None -> Protocol.error_response (Printf.sprintf "unknown job %d" id)
  | Some (Jobq.Queued | Jobq.Running) ->
      Protocol.error_response
        (Printf.sprintf
           "job %d is not finished; use {\"verb\":\"result\",\"id\":%d,\
            \"wait\":true} to block"
           id id)
  | Some (Jobq.Cancelled as st) ->
      let idf, stf = base st in
      Protocol.ok_response [ idf; stf ]
  | Some (Jobq.Finished o as st) -> (
      let idf, stf = base st in
      match o with
      | Jobq.Expired ->
          let label =
            Option.value ~default:"?" (Jobq.label t.q id)
          in
          Protocol.ok_response
            [
              idf;
              stf;
              ("kernel", Json.Str label);
              ("error", Json.Str "deadline expired before the job started");
            ]
      | Jobq.Crashed e ->
          Protocol.ok_response [ idf; stf; ("error", Json.Str e) ]
      | Jobq.Solved r -> Protocol.ok_response (idf :: stf :: report_fields r))

let stats_line t =
  let tot = Jobq.totals t.q in
  let lat =
    List.assoc_opt "hca_request_latency_ms" (Registry.snapshot ()).Registry.hists
  in
  let quant q =
    match lat with
    | None -> Json.Num 0.
    | Some hv -> Json.Num (Registry.quantile hv q)
  in
  Protocol.ok_response
    [
      ("uptime_s", Json.Num (Hca_util.Clock.now () -. t.started_s));
      ("submitted", num tot.Jobq.submitted);
      ("finished", num tot.Jobq.finished);
      ("cancelled", num tot.Jobq.cancelled);
      ("expired", num tot.Jobq.expired);
      ("crashed", num tot.Jobq.crashed);
      ("queued", num (Jobq.queued t.q));
      ("running", num (Jobq.running t.q));
      ("cache_hits", num tot.Jobq.cache_hits);
      ("cache_misses", num tot.Jobq.cache_misses);
      ("cache_entries", num (cache_entries t));
      ("loaded_entries", num t.loaded);
      ("store_rejected", num t.rejected);
      ("stamp", Json.Str t.stamp);
      ("latency_p50_ms", quant 0.5);
      ("latency_p95_ms", quant 0.95);
      ("latency_p99_ms", quant 0.99);
      ("trace_files", num (Registry.counter "hca_trace_files_total"));
      ("flight_dumps", num (Registry.counter "hca_flight_dumps_total"));
    ]

let metrics_line fmt =
  match fmt with
  | Protocol.Prometheus ->
      Protocol.ok_response
        [
          ("format", Json.Str "prometheus");
          ("prometheus", Json.Str (Registry.to_prometheus ()));
        ]
  | Protocol.Json_metrics ->
      Protocol.ok_response [ ("metrics", Registry.to_json ()) ]

(* ------------------------------------------------------------------ *)
(* The handler                                                         *)

let handle_submit t (s : Protocol.submit) =
  let ( let* ) = Result.bind in
  if t.stopping then
    Line (Protocol.error_response "daemon is shutting down")
  else
    match
      let* config =
        Config.search ?beam:s.beam ?candidates:s.candidates ?spread:s.spread
          ?fanin_cap:s.fanin_cap ()
        |> Result.map_error (fun (label, v) ->
               Printf.sprintf "\"config.%s\" must be at least 1, got %d"
                 label v)
      in
      let* ddg = resolve_source s.source in
      let* fabric =
        Result.map_error
          (fun e -> "bad machine: " ^ e)
          (match (s.machine, s.machine_desc) with
          | None, None -> Ok Dspfabric.reference
          | Some (n, m, k), _ -> (
              try Ok (Dspfabric.make ~n ~m ~k ())
              with Invalid_argument e -> Error e)
          | None, Some text -> Hca_machine.Machine_io.of_string text)
      in
      Ok (ddg, fabric, config)
    with
    | Error e ->
        Log.warn "submit.reject" [ ("error", Log.S e) ];
        Line (Protocol.error_response e)
    | Ok (ddg, fabric, config) ->
        let memo = s.memo in
        let cache = if memo then Some t.cache else None in
        let label = Ddg.name ddg in
        let work ~deadline_s =
          Report.run ~config ~jobs:1 ~memo ?cache ?deadline_s fabric ddg
        in
        let id =
          Jobq.submit t.q ~label ~priority:s.priority ?deadline_s:s.deadline_s
            (instrument t ~trace:s.trace ~label work)
        in
        Line
          (Protocol.ok_response [ ("id", num id); ("kernel", Json.Str label) ])

let terminal = function
  | Some (Jobq.Finished _ | Jobq.Cancelled) -> true
  | Some (Jobq.Queued | Jobq.Running) | None -> false

let verb_name = function
  | Protocol.Submit _ -> "submit"
  | Protocol.Status _ -> "status"
  | Protocol.Result _ -> "result"
  | Protocol.Cancel _ -> "cancel"
  | Protocol.Stats -> "stats"
  | Protocol.Metrics _ -> "metrics"
  | Protocol.Ping -> "ping"
  | Protocol.Shutdown -> "shutdown"

let handle_line t line =
  match Protocol.request_of_line line with
  | Error e ->
      Registry.inc "hca_protocol_errors_total";
      Line (Protocol.error_response e)
  | Ok req -> (
      Registry.inc (Printf.sprintf "hca_requests_total{verb=\"%s\"}" (verb_name req));
      match req with
      | Protocol.Submit s -> handle_submit t s
      | Protocol.Status id -> (
          match Jobq.state t.q id with
          | None ->
              Line (Protocol.error_response (Printf.sprintf "unknown job %d" id))
          | Some st ->
              let label = Option.value ~default:"?" (Jobq.label t.q id) in
              Line
                (Protocol.ok_response
                   [
                     ("id", num id);
                     ("state", Json.Str (state_name st));
                     ("kernel", Json.Str label);
                   ]))
      | Protocol.Result { id; wait } ->
          let st = Jobq.state t.q id in
          if terminal st then Line (result_line t id)
          else if st = None then
            Line (Protocol.error_response (Printf.sprintf "unknown job %d" id))
          else if wait then Wait_for id
          else Line (result_line t id) (* the "not finished" error *)
      | Protocol.Cancel id -> (
          match Jobq.cancel t.q id with
          | Ok () ->
              Line
                (Protocol.ok_response
                   [ ("id", num id); ("state", Json.Str "cancelled") ])
          | Error e -> Line (Protocol.error_response e))
      | Protocol.Stats -> Line (stats_line t)
      | Protocol.Metrics fmt -> Line (metrics_line fmt)
      | Protocol.Ping ->
          Line (Protocol.ok_response [ ("pong", Json.Bool true) ])
      | Protocol.Shutdown ->
          t.stopping <- true;
          Log.info "daemon.shutdown" [ ("via", Log.S "verb") ];
          Shutdown_after (Protocol.ok_response [ ("stopping", Json.Bool true) ]))

(* ------------------------------------------------------------------ *)
(* stdio transport                                                     *)

let finalise t pool =
  Jobq.drain t.q;
  (match flush_store t with
  | Ok (Some n) -> Printf.eprintf "hca serve: memo store flushed (%d entries)\n%!" n
  | Ok None -> ()
  | Error e -> Printf.eprintf "hca serve: %s\n%!" e);
  Option.iter Hca_util.Domain_pool.shutdown pool

let run_stdio ?(jobs = 1) ?store_path ?stamp ?telemetry () =
  let pool =
    if jobs > 1 then
      Some (Hca_util.Domain_pool.create ~dedicated:true ~jobs ())
    else None
  in
  let t = create ?pool ?store_path ?stamp ?telemetry () in
  let say s =
    print_string s;
    print_newline ();
    flush stdout
  in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line -> (
        match handle_line t line with
        | Line s ->
            say s;
            loop ()
        | Wait_for id ->
            ignore (Jobq.wait t.q id);
            say (result_line t id);
            loop ()
        | Shutdown_after s ->
            say s)
  in
  loop ();
  finalise t pool

(* ------------------------------------------------------------------ *)
(* Unix-socket transport: one serving domain multiplexing connections
   with [select], worker domains solving in the background, and a
   self-pipe so a finishing job wakes the loop to answer any blocked
   [result wait:true]. *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable outbuf : string;  (* bytes accepted but not yet written *)
  mutable waiting : int list;  (* job ids owed a deferred result line *)
}

let append_line conn s = conn.outbuf <- conn.outbuf ^ s ^ "\n"

(* Split off every complete line; the tail stays buffered. *)
let take_lines conn =
  let s = Buffer.contents conn.inbuf in
  Buffer.clear conn.inbuf;
  let n = String.length s in
  let lines = ref [] in
  let start = ref 0 in
  for i = 0 to n - 1 do
    if s.[i] = '\n' then begin
      let raw = String.sub s !start (i - !start) in
      let raw =
        if raw <> "" && raw.[String.length raw - 1] = '\r' then
          String.sub raw 0 (String.length raw - 1)
        else raw
      in
      lines := raw :: !lines;
      start := i + 1
    end
  done;
  if !start < n then Buffer.add_substring conn.inbuf s !start (n - !start);
  List.rev !lines

let run_socket ~path ?jobs ?store_path ?stamp ?trace ?telemetry () =
  let jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> Hca_util.Domain_pool.default_jobs ()
  in
  Option.iter
    (fun _ ->
      Hca_obs.Obs.enable ();
      Hca_obs.Obs.reset ())
    trace;
  let pool = Hca_util.Domain_pool.create ~dedicated:true ~jobs () in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_w;
  let poke_buf = Bytes.make 1 '!' in
  let poke () =
    try ignore (Unix.write wake_w poke_buf 0 1)
    with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  let t = create ~pool ~on_finish:poke ?store_path ?stamp ?telemetry () in
  let stop = ref false in
  let on_signal _ =
    t.stopping <- true;
    stop := true;
    poke ()
  in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let restore_signals () =
    Sys.set_signal Sys.sigint prev_int;
    Sys.set_signal Sys.sigterm prev_term;
    Sys.set_signal Sys.sigpipe prev_pipe
  in
  if Sys.file_exists path then Sys.remove path;
  let listen_fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind listen_fd (ADDR_UNIX path);
  Unix.listen listen_fd 16;
  Log.info "daemon.listen" [ ("socket", Log.S path); ("jobs", Log.I jobs) ];
  let conns = ref [] in
  let drop conn =
    conns := List.filter (fun c -> c.fd != conn.fd) !conns;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Log.debug "conn.close" [ ("open", Log.I (List.length !conns)) ]
  in
  (* Answer every waiting id whose job went terminal since last time. *)
  let settle conn =
    let still, ready =
      List.partition (fun id -> not (terminal (Jobq.state t.q id))) conn.waiting
    in
    conn.waiting <- still;
    List.iter (fun id -> append_line conn (result_line t id)) ready
  in
  let handle conn line =
    match handle_line t line with
    | Line s -> append_line conn s
    | Wait_for id -> conn.waiting <- conn.waiting @ [ id ]
    | Shutdown_after s ->
        append_line conn s;
        stop := true
  in
  let read_buf = Bytes.create 65536 in
  let service_read conn =
    match Unix.read conn.fd read_buf 0 (Bytes.length read_buf) with
    | 0 -> drop conn
    | n ->
        Buffer.add_subbytes conn.inbuf read_buf 0 n;
        List.iter (handle conn) (take_lines conn)
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> drop conn
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  in
  let service_write conn =
    match Unix.write_substring conn.fd conn.outbuf 0 (String.length conn.outbuf) with
    | n -> conn.outbuf <- String.sub conn.outbuf n (String.length conn.outbuf - n)
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> drop conn
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  in
  while not !stop do
    List.iter settle !conns;
    let readers = wake_r :: listen_fd :: List.map (fun c -> c.fd) !conns in
    let writers =
      List.filter_map
        (fun c -> if c.outbuf <> "" then Some c.fd else None)
        !conns
    in
    match Unix.select readers writers [] (-1.0) with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | ready_r, ready_w, _ ->
        if List.mem wake_r ready_r then begin
          match Unix.read wake_r read_buf 0 64 with
          | _ -> ()
          | exception Unix.Unix_error _ -> ()
        end;
        let live c = List.memq c !conns in
        List.iter
          (fun c -> if live c && List.mem c.fd ready_w then service_write c)
          !conns;
        List.iter
          (fun c -> if live c && List.mem c.fd ready_r then service_read c)
          !conns;
        if List.mem listen_fd ready_r then begin
          match Unix.accept listen_fd with
          | fd, _ ->
              conns :=
                { fd; inbuf = Buffer.create 256; outbuf = ""; waiting = [] }
                :: !conns;
              Log.debug "conn.accept" [ ("open", Log.I (List.length !conns)) ]
          | exception Unix.Unix_error _ -> ()
        end
  done;
  if t.stopping then Log.info "daemon.stopping" [];
  (* Drain in-flight work, then pay every debt: deferred results first,
     then any bytes still queued, then the store. *)
  Jobq.drain t.q;
  List.iter
    (fun conn ->
      settle conn;
      if conn.outbuf <> "" then begin
        try
          let rec flush_all () =
            if conn.outbuf <> "" then begin
              service_write conn;
              if List.memq conn !conns then flush_all ()
            end
          in
          flush_all ()
        with Unix.Unix_error _ -> ()
      end)
    !conns;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  if Sys.file_exists path then Sys.remove path;
  (match flush_store t with
  | Ok (Some n) ->
      Printf.eprintf "hca serve: memo store flushed (%d entries)\n%!" n
  | Ok None -> ()
  | Error e -> Printf.eprintf "hca serve: %s\n%!" e);
  Hca_util.Domain_pool.shutdown pool;
  Unix.close wake_r;
  Unix.close wake_w;
  restore_signals ();
  Log.info "daemon.exit" [];
  Option.iter
    (fun path ->
      Hca_obs.Obs.Trace.write ~meta:[ ("source", "hca serve") ] path;
      Printf.eprintf "hca serve: trace written to %s\n%!" path)
    trace
