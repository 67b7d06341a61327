(* The served workloads: an [hca serve --jobs 2] daemon in a child
   process, driven over its Unix socket by a closed loop of two
   connections (this process's main domain and one more), each keeping
   four requests outstanding.

   A run is a series of rounds, each one daemon lifetime: spawn, serve a
   fixed number of requests, stop.  Spawn-to-first-ping is the round's
   set-up time.  Restarting keeps the daemon's memo, which only grows,
   at the size one round leaves, so memory stays bounded however long
   the run. *)

module Json = Hca_serve.Json
module Report = Hca_core.Report
module Daemon = Hca_serve.Daemon

let now = Run.now

let outstanding_per_conn = 4

(* Every tenth request is an anchor: a kernel from a fixed list that
   every run serves at the same indices, so the quality sums over the
   first [anchors_counted] anchors repeat exactly at any seed.  The rest
   of the traffic is drawn from the seed. *)
let anchors_counted = 100

(* The first [anchors_counted] anchors, in the untraced phase. *)
let min_requests cfg = if cfg.Run.smoke then 20 else 10 * anchors_counted

(* Requests per daemon lifetime: enough for a per-round p90 with 50
   requests beyond it. *)
let round_size cfg = if cfg.Run.smoke then min_requests cfg else 500

(* In a traced phase one request in [traced_every] asks the daemon for
   its own trace; 19 is prime to the ten-request pattern of anchors,
   repeats and new kernels, so the sample covers all of them. *)
let traced_every = 19

(* Fresh kernels start far above the anchors' generator seeds. *)
let fresh_base seed = 1_000_000 + ((seed land 0xffff) * 1_000_000)

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)

(* Daemons not yet reaped, so that a failing run still stops them. *)
let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let reap pid =
  ignore (Unix.waitpid [] pid);
  live := List.filter (( <> ) pid) !live

(* The hca CLI is built next to this executable in the dune tree. *)
let hca_exe () =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/hca_cli.exe"

type daemon = { pid : int; sock : string }

let rec connect ~deadline d =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_UNIX d.sock) with
  | () -> fd
  | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when now () < deadline ->
      Unix.close fd;
      (match Unix.waitpid [ WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ ->
          live := List.filter (( <> ) d.pid) !live;
          failwith "the daemon exited before it was ready");
      Unix.sleepf 0.0002;
      connect ~deadline d
  | exception e ->
      Unix.close fd;
      raise e

type conn = { ic : in_channel; oc : out_channel }

let open_conn d =
  let fd = connect ~deadline:(now () +. 60.) d in
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close_conn c = try close_out c.oc with Sys_error _ -> ()

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv c =
  let line = input_line c.ic in
  match Json.parse line with Ok j -> (line, j) | Error e -> failwith ("unparsable reply: " ^ e)

let rpc d line =
  let c = open_conn d in
  Fun.protect ~finally:(fun () -> close_conn c) (fun () -> send c line; snd (recv c))

(* Spawns the daemon and returns it with the seconds until it answered
   its first ping: process start, store load and socket bind. *)
let spawn cfg ~store ~trace_dir =
  let sock = Filename.concat cfg.Run.work_dir "serve.sock" in
  let log = Unix.openfile (Filename.concat cfg.Run.work_dir "serve.log") [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process (hca_exe ())
      [| "hca"; "serve"; "--socket"; sock; "--jobs"; "2"; "--store"; store; "--trace-dir"; trace_dir |]
      devnull log log
  in
  Unix.close log;
  Unix.close devnull;
  live := pid :: !live;
  let d = { pid; sock } in
  ignore (rpc d {|{"verb":"ping"}|});
  (d, now () -. t0)

(* Killing skips the store flush, which leaves the store file as it
   was. *)
let kill d =
  Unix.kill d.pid Sys.sigkill;
  reap d.pid

(* Graceful stop: SIGTERM drains, flushes the store and exits. *)
let stop d =
  let t0 = now () in
  Unix.kill d.pid Sys.sigterm;
  reap d.pid;
  now () -. t0

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)

type request = { idx : int; seed : int; trace : bool }

type served = {
  req : request;
  t0 : float;
  t1 : float;
  state : string;
  mii : int;
  copies : int;
  invariant : string;
  lines : (string * string) option;  (** request and reply, kept for every tenth request *)
}

let submit_line r =
  Json.to_string
    (Json.Obj
       ([ ("verb", Json.Str "submit"); ("gen_seed", Json.Num (float_of_int r.seed)) ]
       @ if r.trace then [ ("trace", Json.Bool true) ] else []))

let member_int k j = Option.value ~default:0 (Option.bind (Json.member k j) Json.int)

let served_of r t0 ~sent (line, j) =
  let str k = Option.value ~default:"" (Option.bind (Json.member k j) Json.str) in
  let legal = Json.member "legal" j = Some (Json.Bool true) in
  {
    req = r;
    t0;
    t1 = now ();
    state = (if Json.member "ok" j = Some (Json.Bool true) then str "state" else "error: " ^ str "error");
    (* as Check.mii: an illegal result counts its instruction count *)
    mii = (match Option.bind (Json.member "final_mii" j) Json.int with Some m when legal -> m | _ -> member_int "n_instr" j);
    copies = member_int "copies" j;
    invariant = str "invariant";
    lines = (if r.idx mod 10 = 0 then Some (sent, line) else None);
  }

(* One connection: keep [outstanding_per_conn] requests in flight.  A
   submit is answered at once with the job id, which is then awaited
   with [result wait:true]; replies to the two verbs interleave, and a
   result is told from a submit reply by its [state] field. *)
let drive d ~take =
  let c = open_conn d in
  Fun.protect
    ~finally:(fun () -> close_conn c)
    (fun () ->
      let submitted = Queue.create () and waiting = Hashtbl.create 8 in
      let in_flight = ref 0 and done_ = ref [] in
      let finish r t0 sent reply =
        done_ := served_of r t0 ~sent reply :: !done_;
        decr in_flight
      in
      let rec fill () =
        if !in_flight < outstanding_per_conn then
          match take () with
          | None -> ()
          | Some r ->
              let line = submit_line r in
              Queue.push (r, now (), line) submitted;
              send c line;
              incr in_flight;
              fill ()
      in
      fill ();
      while !in_flight > 0 do
        let ((_, j) as reply) = recv c in
        (if Json.member "state" j = None then
           let r, t0, sent = Queue.pop submitted in
           match Option.bind (Json.member "id" j) Json.int with
           | Some id when Json.member "ok" j = Some (Json.Bool true) ->
               Hashtbl.replace waiting id (r, t0, sent);
               send c
                 (Json.to_string
                    (Json.Obj [ ("verb", Json.Str "result"); ("id", Json.Num (float_of_int id)); ("wait", Json.Bool true) ]))
           | _ -> finish r t0 sent reply
         else
           let id = member_int "id" j in
           let r, t0, sent = Hashtbl.find waiting id in
           Hashtbl.remove waiting id;
           finish r t0 sent reply);
        fill ()
      done;
      !done_)

(* Requests [first .. first+count-1], drawn by both connections from one
   counter. *)
let closed_loop d ~first ~count plan =
  let next = Atomic.make first in
  let take () =
    let i = Atomic.fetch_and_add next 1 in
    if i - first < count then Some (plan i) else None
  in
  let other = Domain.spawn (fun () -> drive d ~take) in
  let mine = drive d ~take in
  mine @ Domain.join other

(* ------------------------------------------------------------------ *)
(* Daemon-side figures                                                 *)

(* The registry quantities read from the [metrics] verb. *)
let registry_fields =
  [
    ("hca_memo_hits_total", `Counter);
    ("hca_memo_misses_total", `Counter);
    ("hca_minor_gcs_total", `Counter);
    ("hca_report_alloc_mb", `Sum);
    ("hca_report_alloc_mb", `Count);
    ("hca_request_run_ms", `Sum);
    ("hca_request_latency_ms", `Sum);
  ]

let registry d =
  let m = Json.member "metrics" (rpc d {|{"verb":"metrics"}|}) in
  let get path = Option.value ~default:0. (Option.bind (List.fold_left (fun j k -> Option.bind j (Json.member k)) m path) Json.num) in
  List.map
    (fun (name, field) ->
      match field with
      | `Counter -> get [ "counters"; name ]
      | `Sum -> get [ "histograms"; name; "sum" ]
      | `Count -> get [ "histograms"; name; "count" ])
    registry_fields

let field name kind deltas = List.assoc (name, kind) (List.combine registry_fields deltas)

let ratio a b = if b > 0. then a /. b else 0.

type round = {
  store : string;  (** the store file the daemon started from and flushed to *)
  served : served list;
  setup_s : float;
  serve_s : float;
  rss_mb : float;
  deltas : float list;  (** of [registry_fields] over the round *)
  idle_s : float;  (** time no request was in flight *)
  stop_s : float option;  (** graceful stop, store flush included; traced rounds only *)
}

let idle_s served ~t_start ~t_end =
  let busy, s, e =
    List.fold_left
      (fun (busy, s, e) x -> if x.t0 > e then (busy +. (e -. s), x.t0, x.t1) else (busy, s, Float.max e x.t1))
      (0., t_start, t_start)
      (List.sort (fun a b -> compare a.t0 b.t0) served)
  in
  Float.max 0. (t_end -. t_start -. (busy +. (e -. s)))

(* One daemon lifetime on the store file [store] (absent: a cold
   start).  A traced round ends with a graceful stop, an untraced one
   is killed. *)
let round cfg ~store ~trace_dir ~first ~count plan =
  let d, setup_s = spawn cfg ~store ~trace_dir in
  let r0 = registry d in
  let t_start = now () in
  let served = closed_loop d ~first ~count plan in
  let t_end = now () in
  let r1 = registry d in
  let rss_mb = Run.vm_hwm_mb (string_of_int d.pid) in
  let stop_s =
    if cfg.Run.trace then Some (stop d)
    else begin
      kill d;
      if Sys.file_exists store then Sys.remove store;
      None
    end
  in
  {
    store;
    served = List.sort (fun a b -> compare a.req.idx b.req.idx) served;
    setup_s;
    serve_s = t_end -. t_start;
    rss_mb;
    deltas = List.map2 ( -. ) r1 r0;
    idle_s = idle_s served ~t_start ~t_end;
    stop_s;
  }

(* Rounds until [seconds] have passed and at least [min] requests were
   served, as [Run.rounds] does for in-process ops.  [store k] names the
   store file round [k] starts from. *)
let rounds cfg ~store ~trace_dir ~first ~size ~seconds ~min plan =
  let t0 = now () in
  let rec go acc n k =
    let elapsed = now () -. t0 in
    if acc <> [] && n >= min && elapsed +. (elapsed /. float_of_int k /. 2.) >= seconds then List.rev acc
    else
      let r = round cfg ~store:(store k) ~trace_dir ~first:(first + n) ~count:size plan in
      go (r :: acc) (n + size) (k + 1)
  in
  go [] 0 0

let phase_of rounds =
  {
    Run.wall_s = List.fold_left (fun acc r -> acc +. r.serve_s) 0. rounds;
    rounds =
      List.map
        (fun r ->
          {
            Run.round_s = r.serve_s;
            samples = List.map (fun s -> { Run.key = s.req.idx; ms = (s.t1 -. s.t0) *. 1000.; mb = 0. }) r.served;
          })
        rounds;
  }

let capture_layers trace_dir =
  let layers = Layers.create () in
  let files = List.filter (String.starts_with ~prefix:"req-") (Array.to_list (Sys.readdir trace_dir)) in
  List.iter
    (fun f ->
      let path = Filename.concat trace_dir f in
      match Hca_obs.Trace_check.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Ok j -> Layers.absorb_chrome layers j
      | Error e -> failwith (path ^ ": " ^ e))
    files;
  (layers, List.length files)

(* Load and save timed on the store the last traced round flushed; the
   flush rate is over the median graceful stop. *)
let store_layers cfg ~store ~stop_s =
  let stamp =
    (* the stamp is the header's second line *)
    In_channel.with_open_bin store (fun ic -> ignore (input_line ic); input_line ic)
  in
  let size_mb = float_of_int (Unix.stat store).Unix.st_size /. 1e6 in
  let t0 = now () in
  match Hca_serve.Store.load ~path:store ~stamp with
  | Ok (Some snap) ->
      let load_s = now () -. t0 in
      let t1 = now () in
      let copy = Filename.concat cfg.Run.work_dir "store-copy.bin" in
      let entries = match Hca_serve.Store.save ~path:copy ~stamp snap with Ok n -> n | Error e -> failwith e in
      let save_s = now () -. t1 in
      [
        ("store.load_mb_per_s", size_mb /. load_s);
        ("store.save_mb_per_s", size_mb /. save_s);
        ("store.flush_mb_per_s", size_mb /. stop_s);
        ("store.entries", float_of_int entries);
        ("store.file_mb", size_mb);
      ]
  | Ok None -> failwith "the flushed store did not load"
  | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* The workloads                                                       *)

(* [store k] is the store file round [k] starts from; [plan] maps a
   request index to the request. *)
let run_serve cfg ~store ~plan =
  let trace_dir = Filename.concat cfg.Run.work_dir "traces" in
  let seconds = Run.phase_seconds cfg in
  let size = round_size cfg in
  let untraced = rounds { cfg with trace = false } ~store ~trace_dir ~first:0 ~size ~seconds ~min:(min_requests cfg) (plan ~traced:false) in
  let first = List.fold_left (fun acc r -> acc + List.length r.served) 0 untraced in
  let traced =
    if cfg.trace then
      Some
        (rounds cfg ~store:(fun k -> store (1000 + k)) ~trace_dir ~first ~size ~seconds ~min:size
           (plan ~traced:true))
    else None
  in
  let all_rounds = untraced @ Option.value ~default:[] traced in
  let served_in rs = List.concat_map (fun r -> r.served) rs in
  let all = served_in all_rounds and measured = served_in untraced in
  (* Every tenth request is checked against a local one-shot run; only
     the figures used below are kept of each. *)
  let local = Hashtbl.create 128 in
  let local_run seed =
    match Hashtbl.find_opt local seed with
    | Some r -> r
    | None ->
        let r = Report.run ~jobs:1 Hca_machine.Dspfabric.reference (Daemon.gen_kernel ~seed ~max_size:None) in
        let kept = (Report.invariant_string r, r.explored_states, r.routed_moves) in
        Hashtbl.replace local seed kept;
        kept
  in
  let anchors = List.filter (fun s -> s.req.idx mod 10 = 0) measured in
  let wrong =
    List.filter
      (fun s ->
        let invariant, _, _ = local_run s.req.seed in
        s.state = "done" && invariant <> s.invariant)
      anchors
  in
  let not_done = List.filter (fun s -> s.state <> "done") all in
  let counted = List.filteri (fun k _ -> k < anchors_counted) anchors in
  let layers =
    match traced with
    | None -> []
    | Some traced ->
        let caps, n_caps = capture_layers trace_dir in
        let checked = List.map (fun s -> local_run s.req.seed) anchors in
        let mean f = ratio (List.fold_left (fun acc r -> acc +. float_of_int (f r)) 0. checked) (float_of_int (List.length checked)) in
        let requests, replies = List.split (List.filter_map (fun s -> s.lines) measured) in
        let ops = float_of_int (List.length measured) in
        let delta name kind = List.fold_left (fun acc r -> acc +. field name kind r.deltas) 0. untraced in
        let reports = delta "hca_report_alloc_mb" `Count in
        let hits = delta "hca_memo_hits_total" `Counter and misses = delta "hca_memo_misses_total" `Counter in
        let run_ms = delta "hca_request_run_ms" `Sum and server_ms = delta "hca_request_latency_ms" `Sum in
        let client_ms = List.fold_left (fun acc s -> acc +. ((s.t1 -. s.t0) *. 1000.)) 0. measured in
        let stops = Array.of_list (List.filter_map (fun r -> r.stop_s) traced) in
        let traced_wall = List.fold_left (fun acc r -> acc +. r.serve_s) 0. traced in
        (* These replace what the sampled per-request traces give:
           memo, allocation and queue figures from the daemon's registry
           over every untraced request, search counts from the local
           re-runs. *)
        let overrides =
          [
            ("gc.alloc_mb_per_op", ratio (delta "hca_report_alloc_mb" `Sum) reports);
            ("gc.minor_per_op", ratio (delta "hca_minor_gcs_total" `Counter) reports);
            ("hierarchy.subproblems_per_op", (hits +. misses) /. ops);
            ("hierarchy.memo_hits_per_op", hits /. ops);
            ("hierarchy.memo_misses_per_op", misses /. ops);
            ("hierarchy.memo_hit_ratio", ratio hits (hits +. misses));
            ("see.explored_states_per_op", mean (fun (_, explored, _) -> explored));
            ("router.routed_moves_per_op", mean (fun (_, _, routed) -> routed));
            ("jobq.wait_share", ratio (server_ms -. run_ms) client_ms);
            ("daemon.run_share", ratio run_ms client_ms);
            ( "trace.unattributed_frac",
              ratio (List.fold_left (fun acc r -> acc +. r.idle_s) 0. traced) traced_wall );
          ]
        in
        overrides
        @ List.filter (fun (k, _) -> not (List.mem_assoc k overrides)) (Layers.span_metrics caps ~ops:n_caps)
        @ Proto.replay ~requests ~replies
        @ store_layers cfg ~store:(List.nth traced (List.length traced - 1)).store ~stop_s:(Stats.median stops)
  in
  {
    Run.timing = Run.Served;
    setup_s = Array.of_list (List.map (fun r -> r.setup_s) untraced);
    measured = phase_of untraced;
    traced = Option.map phase_of traced;
    peak_rss_mb = List.fold_left (fun acc r -> Float.max acc r.rss_mb) 0. untraced;
    mii_sum = List.fold_left (fun acc s -> acc + s.mii) 0 counted;
    copies_sum = List.fold_left (fun acc s -> acc + s.copies) 0 counted;
    attempted = List.length all;
    failed = List.length not_done + List.length wrong;
    digest = Check.digest (List.map (fun s -> s.invariant) counted);
    rows = [];
    notes =
      [
        ("requests", Json.Num (float_of_int (List.length all)));
        ("rounds", Json.Num (float_of_int (List.length all_rounds)));
        ("verified", Json.Num (float_of_int (List.length anchors)));
        ( "failed_requests",
          Json.Arr
            (List.map
               (fun s ->
                 Json.Str
                   (Printf.sprintf "seed %d: %s" s.req.seed
                      (if s.state = "done" then "differs from a local run" else s.state)))
               (not_done @ wrong)) );
      ];
    layers;
  }

(* Each round starts a daemon with no store file: every request is a
   kernel it has never seen. *)
let serve_cold cfg =
  let fresh = fresh_base cfg.Run.seed in
  let plan ~traced i =
    { idx = i; seed = (if i mod 10 = 0 then i / 10 else fresh + i); trace = traced && i mod traced_every = 0 }
  in
  let store k = Filename.concat cfg.Run.work_dir (Printf.sprintf "cold-%d.store" k) in
  run_serve cfg ~store ~plan

(* One daemon serves the hundred anchors and 500 seeded kernels cold and
   flushes them; each round then starts from a copy of that store. *)
let serve_warm cfg =
  let fresh = fresh_base cfg.Run.seed in
  let warm_n = if cfg.Run.smoke then 8 else 500 in
  let warm = Array.init warm_n (fun j -> fresh + j) in
  let anchors = if cfg.Run.smoke then 2 else anchors_counted in
  let warm_store = Filename.concat cfg.Run.work_dir "warm.store" in
  let trace_dir = Filename.concat cfg.Run.work_dir "traces" in
  let seeds = Array.append (Array.init anchors Fun.id) warm in
  let d, _ = spawn cfg ~store:warm_store ~trace_dir in
  let warmed = closed_loop d ~first:0 ~count:(Array.length seeds) (fun i -> { idx = i; seed = seeds.(i); trace = false }) in
  ignore (stop d);
  if List.exists (fun s -> s.state <> "done") warmed then failwith "warming the store failed";
  let store k =
    let path = Filename.concat cfg.Run.work_dir (Printf.sprintf "warm-%d.store" k) in
    In_channel.with_open_bin warm_store (fun ic ->
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (In_channel.input_all ic)));
    path
  in
  (* Of every ten requests, the anchor and seven others repeat a warm
     kernel and two are new, so every round has the same mix.  Each
     warm draw has its own generator, seeded from (seed, index), so both
     connections may plan requests in any order. *)
  let plan ~traced i =
    let seed =
      match i mod 10 with
      | 0 -> i / 10 mod anchors
      | 4 | 8 -> fresh + warm_n + i
      | _ -> warm.(Hca_util.Prng.int (Hca_util.Prng.create (Hca_util.Sig_hash.ints [ cfg.Run.seed; i ])) warm_n)
    in
    { idx = i; seed; trace = traced && i mod traced_every = 0 }
  in
  run_serve cfg ~store ~plan
