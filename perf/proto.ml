(* Wire-protocol costs, measured by replaying request and reply lines
   through the daemon's own parser and printer. *)

module Json = Hca_serve.Json
module Daemon = Hca_serve.Daemon

(* The line a client would send to have the daemon map [ddg] on
   [fabric]. *)
let submit_line fabric ddg =
  Json.to_string
    (Json.Obj
       [
         ("verb", Json.Str "submit");
         ("ddg", Json.Str (Hca_ddg.Ddg_io.to_string ddg));
         ("machine_desc", Json.Str (Hca_machine.Machine_io.to_string fabric));
       ])

(* The [result] reply the daemon would send for [report], produced by
   the daemon's own reply path. *)
let reply_line report =
  let d = Daemon.create ~stamp:"hcabench" () in
  let id = Daemon.inject d ~label:report.Hca_core.Report.kernel (fun ~deadline_s:_ -> report) in
  ignore (Hca_serve.Jobq.pump (Daemon.jobq d));
  Daemon.result_line d id

(* Mean microseconds per line of [f], over whole passes until at least
   50 ms were measured. *)
let per_line_us lines f =
  let n = List.length lines in
  if n = 0 then invalid_arg "Proto.per_line_us: no lines";
  let passes = ref 0 in
  let t0 = Run.now () in
  while Run.now () -. t0 < 0.05 do
    List.iter (fun l -> ignore (Sys.opaque_identity (f l))) lines;
    incr passes
  done;
  (Run.now () -. t0) /. float_of_int (!passes * n) *. 1e6

(* Compacting first makes the timing independent of what the caller
   left on the heap. *)
let replay ~requests ~replies =
  Gc.compact ();
  let parsed = List.map (fun l -> match Json.parse l with Ok j -> j | Error e -> failwith e) replies in
  [
    ("protocol.parse_us", per_line_us requests Hca_serve.Protocol.request_of_line);
    ("json.reply_parse_us", per_line_us replies Json.parse);
    ("json.reply_encode_us", per_line_us parsed Json.to_string);
  ]
