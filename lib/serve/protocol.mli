(** The wire protocol of the compile service: newline-delimited JSON,
    one request object in, one response object out, over a Unix-domain
    socket or stdio.

    Requests:
    {v
    {"verb":"submit", <kernel source>, "machine":{"n":8,"m":8,"k":8},
     "config":{"beam":8,"candidates":4,"spread":false,"fanin_cap":4},
     "priority":0, "deadline_s":2.5, "memo":true, "trace":false}
    {"verb":"status", "id":3}
    {"verb":"result", "id":3, "wait":true}
    {"verb":"cancel", "id":3}
    {"verb":"stats"}
    {"verb":"metrics", "format":"json"|"prometheus"}
    {"verb":"ping"}
    {"verb":"shutdown"}
    v}

    The kernel source is exactly one of ["kernel"] (a registry name),
    ["ddg"] (a full kernel in the {!Hca_ddg.Ddg_io} text format, inline
    as a JSON string), or ["gen_seed"] (+ optional ["gen_max_size"]) —
    the seeded {!Hca_gen.Gen} generator, which is what the load-test
    client replays.  Everything but the verb and the source is
    optional, but a field given with the wrong type (a string
    ["priority"], a non-boolean ["memo"], ["trace"] or ["wait"], a
    non-string ["kernel"]) is rejected naming it, never dropped.  The
    machine is exactly one of ["machine"] (the
    [{"n":..,"m":..,"k":..}] MUX capacities of the reference-shaped
    fabric) or ["machine_desc"] (a full machine description in the
    {!Hca_machine.Machine_io} text format, inline as one JSON string —
    the path to arbitrary topologies and heterogeneous resource
    tables); giving both is rejected at parse time, and neither means
    the daemon's reference fabric.  ["config"], when present, is an
    object whose ["beam"], ["candidates"] and ["fanin_cap"] are
    integers and ["spread"] a boolean; a value of the wrong type is
    rejected at parse time, and an integer below 1 at submit time
    ({!Hca_core.Config.search}), before any job is queued.
    ["trace":true] asks the daemon for a per-request Chrome trace of
    this submission (written server-side under its trace directory as
    [req-<id>.json]); tracing never changes any result field.

    Responses always carry ["ok"]: [{"ok":true, ...}] on success,
    [{"ok":false,"error":"..."}] otherwise.  A finished job's result
    row carries ["id"] and ["state"] ∈ {["done"], ["failed"],
    ["deadline_exceeded"], ["cancelled"]}; a job that ran adds
    ["kernel"], its report as {!Hca_core.Report.to_json} writes it
    ({!Hca_core.Report.of_json} reads it back) and the ["runtime_s"]
    meter.  ["deadline_exceeded"] still reports the partial
    best-so-far fields when the search found any legal configuration
    before the cut-off.

    {2 The [stats] reply, field by field}

    {v
    uptime_s        float  seconds since the daemon started
    submitted       int    jobs ever accepted by the queue
    finished        int    jobs that reached Finished (any outcome:
                           solved, deadline-expired or crashed)
    cancelled       int    jobs cancelled while still queued
    expired         int    jobs whose deadline lapsed before they ran
    crashed         int    jobs whose solver raised
    queued          int    jobs waiting right now
    running         int    jobs on a worker domain right now
    cache_hits      int    memo-store hits summed over solved reports
    cache_misses    int    memo-store misses, same accounting
    cache_entries   int    subproblem entries in the store right now
    loaded_entries  int    entries inherited from the store file at
                           startup (0 on a cold start)
    store_rejected  int    1 when the store file was there but stale
                           or corrupt, so the daemon started cold
    stamp           string the store-compatibility stamp: a digest
                           of the lib/ sources taken at build time
    latency_p50_ms  float  per-request latency quantiles, estimated
    latency_p95_ms  float  from the live hca_request_latency_ms
    latency_p99_ms  float  histogram (0 until a job finished)
    trace_files     int    per-request trace files written so far
    flight_dumps    int    flight-recorder dumps written so far
    v}

    The first fourteen fields are the snapshot counters from
    {!Jobq.totals} and the store; the last five are derived from the
    {!Hca_obs.Obs.Registry} and are also available, with full label
    detail, through the [metrics] verb.

    {2 The [metrics] reply}

    [{"verb":"metrics"}] (or ["format":"json"]) answers
    [{"ok":true,"metrics":{"counters":{..},"gauges":{..},
    "histograms":{..}}}] — the registry snapshot in the
    {!Hca_obs.Obs.Registry.to_json} shape.
    [{"verb":"metrics","format":"prometheus"}] answers
    [{"ok":true,"format":"prometheus","prometheus":"<text>"}] with the
    Prometheus text exposition as one JSON string, ready to serve to a
    scraper. *)

type source =
  | Named of string  (** a kernel of the baked-in registry *)
  | Inline of string  (** [Ddg_io] text, content-digested server-side *)
  | Gen of { seed : int; max_size : int option }

type submit = {
  source : source;
  machine : (int * int * int) option;  (** (N, M, K) MUX capacities *)
  machine_desc : string option;
      (** inline {!Hca_machine.Machine_io} text; exclusive with
          [machine] *)
  beam : int option;
  candidates : int option;
  spread : bool option;
  fanin_cap : int option;
  priority : int;  (** higher runs sooner; default 0 *)
  deadline_s : float option;
      (** budget from submission (queue wait included) *)
  memo : bool;  (** [false] opts this request out of the shared store *)
  trace : bool;  (** request a per-request trace file; default false *)
}

type metrics_format = Json_metrics | Prometheus

type request =
  | Submit of submit
  | Status of int
  | Result of { id : int; wait : bool }
  | Cancel of int
  | Stats
  | Metrics of metrics_format
  | Ping
  | Shutdown

val request_of_line : string -> (request, string) result
(** Parse one protocol line.  Malformed JSON, a non-object, a missing
    or unknown verb, a missing id, an unknown metrics format, an
    ambiguous kernel source, or any field of the wrong type are all
    [Error] with a client-presentable message naming the field. *)

val error_response : string -> string
(** [{"ok":false,"error":...}] — already newline-free. *)

val ok_response : (string * Hca_util.Json.t) list -> string
(** [{"ok":true, <fields>}]. *)
