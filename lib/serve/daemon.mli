(** The compilation-as-a-service daemon: accepts {!Protocol} requests,
    schedules them on a {!Jobq}, and shares one persistent
    {!Hca_core.Hierarchy} subproblem cache across every request — the
    PR-3 memo promoted to a cross-request, cross-restart store.

    Two transports speak the same line protocol through the same
    handler: a Unix-domain socket ({!run_socket}, a single-threaded
    [select] loop with worker domains solving in the background and a
    self-pipe waking the loop when a blocked [result wait] can be
    answered) and stdio ({!run_stdio}, one client, blocking waits) —
    the latter also being the harness the protocol tests drive
    in-process via {!create}/{!handle_line} with no pool at all.

    {2 Telemetry}

    The daemon is fully instrumented through {!Hca_obs.Obs}:

    - every lifecycle transition (accept, submit, start, finish,
      cancel, expiry, crash, store load/flush, listen/shutdown) emits
      one structured {!Hca_obs.Obs.Log} line when a log sink is
      configured ([hca serve --log]);
    - the process-wide {!Hca_obs.Obs.Registry} tracks request counts
      per verb, job outcomes, queue depth, in-flight gauge, memo
      hit/miss totals and latency histograms, exposed through the
      [metrics] verb and summarised in [stats];
    - a request submitted with [trace:true] — or sampled 1-in-N by
      [trace_sample] — runs inside a per-request capture and leaves a
      Chrome trace file [req-<id>.json] under [trace_dir];
    - when [flight] is on, a fixed-size ring keeps the most recent
      span events at all times, and a crashed, deadline-exceeded or
      slower-than-[slow_ms] job dumps it as [flight-<id>.json].

    None of this ever changes a result: a report computed with every
    telemetry feature armed is bit-identical (same
    {!Hca_core.Report.invariant_string}) to one computed with all of
    it off.

    Graceful shutdown (SIGINT/SIGTERM, the [shutdown] verb, or EOF on
    stdio) stops accepting work, drains queued and in-flight jobs,
    flushes the memo store and any pending {!Hca_obs} trace buffers,
    then exits. *)

type telemetry = {
  trace_dir : string;  (** where [req-*.json] / [flight-*.json] land *)
  trace_sample : int;
      (** trace every Nth request id (0 = only explicit [trace:true]) *)
  slow_ms : float option;
      (** flight-dump any job slower than this, even when it succeeds *)
  flight : bool;  (** arm the always-on flight-recorder ring *)
  flight_capacity : int;  (** ring slots per domain (see {!Hca_obs.Obs.Ring}) *)
}

val default_telemetry : telemetry
(** [trace_dir] = ["<tmp>/hca-traces"], [trace_sample = 0],
    [slow_ms = None], [flight = false], [flight_capacity = 4096]. *)

type t

type reply =
  | Line of string  (** answer immediately *)
  | Wait_for of int
      (** answer with {!result_line} once this job is terminal *)
  | Shutdown_after of string  (** answer, then drain and exit *)

val create :
  ?pool:Hca_util.Domain_pool.t ->
  ?on_finish:(unit -> unit) ->
  ?store_path:string ->
  ?stamp:string ->
  ?telemetry:telemetry ->
  unit ->
  t
(** Loads the memo store when [store_path] exists with a matching
    [stamp] (default {!Store.default_stamp}).  A missing store starts
    cold; a stale or corrupt one warns on stderr, counts in the [stats]
    field [store_rejected] and starts cold.  Never raises on the
    file's contents.  No
    [pool] means jobs run only when the caller pumps ({!Jobq.wait} /
    {!Jobq.pump} via {!jobq}) — the deterministic test mode.  When
    [telemetry.flight] is set, the flight ring is armed here. *)

val jobq : t -> Jobq.t

val handle_line : t -> string -> reply
(** One protocol request in, one reply out.  Never raises on client
    input: malformed JSON and unknown verbs come back as
    [{"ok":false,...}] lines. *)

val result_line : t -> int -> string
(** The [result] response for a job in a terminal state (also what a
    [Wait_for] turns into once {!Jobq.wait} returns). *)

val cache_entries : t -> int

val loaded_entries : t -> int
(** Entries inherited from the store file at startup (0 when cold). *)

val flush_store : t -> (int option, string) result
(** Snapshot the cache to the store path ([Ok None] when no store was
    configured); atomic on disk. *)

val trace_file : t -> int -> string
(** Where request [id]'s per-request trace lands when traced
    ([<trace_dir>/req-<id>.json]); exported for tests and [tracecheck]
    walkthroughs. *)

val inject :
  t ->
  label:string ->
  ?priority:int ->
  ?deadline_s:float ->
  ?trace:bool ->
  (deadline_s:float option -> Hca_core.Report.t) ->
  int
(** Submit arbitrary work through the daemon's own instrumentation
    path — per-request capture, lifecycle events, flight dumps — as if
    it had arrived over the wire.  Test hook: lets a test enqueue a
    closure that raises (to exercise the crash → flight-dump path) or
    sleeps (to trip [slow_ms]) without needing a pathological kernel. *)

val gen_kernel : seed:int -> max_size:int option -> Hca_ddg.Ddg.t
(** The kernel a [gen_seed] submission maps (the fuzzer's generator
    under the daemon's knob policy), exported so the load-test client
    can rebuild the exact graph for local verification. *)

val run_stdio :
  ?jobs:int ->
  ?store_path:string ->
  ?stamp:string ->
  ?telemetry:telemetry ->
  unit ->
  unit
(** Serve stdin/stdout until EOF or a [shutdown] verb, then drain and
    flush.  [jobs >= 1] worker domains ([1] = solve on the serving
    domain between requests). *)

val run_socket :
  path:string ->
  ?jobs:int ->
  ?store_path:string ->
  ?stamp:string ->
  ?trace:string ->
  ?telemetry:telemetry ->
  unit ->
  unit
(** Bind [path] (an existing socket file is replaced), serve concurrent
    connections until SIGINT/SIGTERM or a [shutdown] verb, drain,
    flush the store — and when [trace] is given, write the Chrome
    trace of the whole serving session there on the way out. *)
