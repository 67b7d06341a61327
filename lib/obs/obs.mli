(** Domain-safe tracing, structured logging and live metrics.

    Instrumentation points are free to stay in hot paths permanently:
    when every destination is off (the default) each entry point is a
    single atomic load and a branch — no allocation, no clock read, no
    lock.  When armed, each domain appends events to its own sink
    (created lazily via [Domain.DLS] and registered once under a
    mutex), so [Domain_pool] workers record without contention.

    One event stream feeds three destinations, each armed separately:

    - the {e trace buffer} ([enable]/[disable]): unbounded, merged by
      {!Summary} and {!Trace} — the whole-process profiler;
    - the {e flight recorder} ({!Ring}): a fixed-size per-domain ring
      of recent span/instant events, cheap enough to leave always on,
      dumped post-mortem when a request goes wrong;
    - a {e per-request capture} ({!Capture}): everything the calling
      domain records between [start] and [stop], exported as a
      standalone Chrome trace named by request id.

    Independent of the event stream, {!Log} is a leveled newline-JSON
    logger and {!Registry} a process-wide metrics registry (counters,
    gauges, histograms) with Prometheus-text and JSON exposition.

    Recording never influences the instrumented computation, so search
    results are bit-identical with any combination of destinations on
    or off, at every [--jobs].

    Protocol: [enable]/[reset]/[events]/[Summary.collect]/[Trace.*]
    must be called from quiescent points (no traced work in flight);
    the per-event paths ([span], [count], ...) are safe from any
    domain, and {!Ring.dump} tolerates concurrent writers. *)

val enabled : unit -> bool
(** One atomic load; true when {e any} destination is armed — the
    hot-path guard for eager argument work. *)

val enable : unit -> unit
(** Turn the trace buffer on.  The first arming (or the one following
    a [reset]) pins the trace epoch all timestamps are relative to. *)

val disable : unit -> unit
(** Turn the trace buffer off (ring and captures are unaffected). *)

val reset : unit -> unit
(** Drop every buffered trace event and flight-ring entry (all
    domains) and re-arm the epoch.  Active captures are left alone. *)

val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] brackets [f ()] with begin/end events on the calling
    domain's track.  The end event is recorded even when [f] raises, so
    per-domain streams always nest well-formedly. *)

val instant : ?args:(string * string) list -> string -> unit
(** A point event (Chrome "instant"), e.g. a memo hit. *)

val count : string -> int -> unit
(** [count name d] adds [d] to counter [name].  Merging at flush sums
    per-domain partials, so totals are independent of domain placement.
    Counters skip the flight ring: with only the recorder armed this
    is a load and a branch, no clock read. *)

val observe : string -> float -> unit
(** [observe name v] appends a sample to histogram [name] (trace
    buffer and captures only, like {!count}). *)

type event = {
  kind : [ `Begin | `End | `Instant | `Count | `Sample ];
  name : string;  (** empty for [`End] *)
  ts : float;  (** absolute wall-clock seconds *)
  value : float;  (** counter delta / histogram sample; 0 otherwise *)
  args : (string * string) list;
}

val events : unit -> (int * event list) list
(** Per-domain trace-buffer streams in recording order, sorted by
    domain id.  Raw access for the consumers and the test suite. *)

val epoch : unit -> float
(** The wall-clock origin of the current trace (0. before arming). *)

(** Leveled, domain-safe, newline-JSON structured logging.

    Each line is one flat JSON object:
    [{"ts":<s>,"level":"info","event":"job.finish","req":3,...}] —
    ["ts"] is wall-clock seconds (microsecond precision, clamped
    monotone across the process so the stream always sorts), ["req"]
    the optional request-correlation id, and every extra field a
    caller-supplied key/value.  A single mutex serialises emission, so
    lines from worker domains never interleave.  With no sink
    configured (the default) every call is a cheap no-op. *)
module Log : sig
  type level = Debug | Info | Warn | Error

  type field = S of string | I of int | F of float | B of bool

  val level_name : level -> string

  val level_of_string : string -> level option
  (** ["debug"]/["info"]/["warn"] (or ["warning"])/["error"]. *)

  val set_level : level -> unit
  (** Minimum level that reaches the sink; default [Info]. *)

  val off : unit -> unit
  (** Drop the sink (closing it if owned); the default state. *)

  val to_stderr : unit -> unit

  val to_file : string -> unit
  (** Append to [path] (created 0644); the logger owns the channel. *)

  val active : level -> bool
  (** Unlocked fast check — would a line at [level] be emitted?  For
      callers that build fields eagerly. *)

  val log : level -> ?req:int -> string -> (string * field) list -> unit
  (** [log level ?req event fields] emits one line (or nothing, when
      no sink is set or [level] is below the threshold). *)

  val debug : ?req:int -> string -> (string * field) list -> unit

  val info : ?req:int -> string -> (string * field) list -> unit

  val warn : ?req:int -> string -> (string * field) list -> unit

  val error : ?req:int -> string -> (string * field) list -> unit
end

(** Process-wide live metrics: named counters, gauges and bucketed
    histograms, safe to update from any domain (counters are atomics;
    histograms take a per-metric lock).

    Labels ride inside the metric name in Prometheus syntax —
    [inc "hca_requests_total{verb=\"submit\"}"] — so call sites stay
    one string and exposition groups series by base name.  Metrics are
    created on first update; a name keeps the kind of its first use
    (later calls of another kind are ignored rather than raising, so
    telemetry can never crash the service). *)
module Registry : sig
  val inc : ?by:int -> string -> unit
  (** Add [by] (default 1) to a counter. *)

  val set : string -> float -> unit
  (** Set a gauge. *)

  val observe : ?buckets:float array -> string -> float -> unit
  (** Add one sample to a histogram.  [buckets] (ascending finite
      upper bounds; an overflow bucket is implicit) is only consulted
      when the call creates the metric; the default is a 1 ms – 10 s
      latency ladder. *)

  val counter : string -> int
  (** Current counter value; 0 when absent or not a counter. *)

  type hist_view = {
    le : float array;  (** finite upper bounds *)
    buckets : int array;  (** per-bucket counts; one extra overflow *)
    count : int;
    sum : float;
  }

  type snapshot = {
    counters : (string * int) list;  (** sorted by name *)
    gauges : (string * float) list;
    hists : (string * hist_view) list;
  }

  val snapshot : unit -> snapshot
  (** A consistent-enough copy of every metric (each histogram is
      copied under its own lock). *)

  val quantile : hist_view -> float -> float
  (** [quantile hv q] estimates the [q]-quantile (0..1) by linear
      interpolation within the owning bucket — dashboard accuracy,
      no sample retention. *)

  val to_prometheus : unit -> string
  (** Prometheus text exposition: one [# TYPE] line per base name,
      cumulative [_bucket{le="..."}] plus [_sum]/[_count] series per
      histogram. *)

  val to_json : unit -> Hca_util.Json.t
  (** The same snapshot as one JSON object:
      [{"counters":{..},"gauges":{..},"histograms":{name:
      {"count":n,"sum":s,"buckets":[[le,cumulative],..]}}}], every
      number exact (unlike the Prometheus text, which prints [%g]). *)

  val clear : unit -> unit
  (** Drop every metric (tests only). *)
end

module Summary : sig
  type phase = {
    name : string;
    calls : int;
    total_s : float;  (** wall-clock inside spans of this name *)
    self_s : float;  (** [total_s] minus time inside child spans *)
    max_s : float;  (** longest single span *)
  }

  type hist = {
    h_name : string;
    samples : int;
    mean : float;
    min_v : float;
    p50 : float;
    p90 : float;
    p95 : float;  (** tail percentiles for serving-latency reports *)
    p99 : float;
    max_v : float;
  }

  type t = {
    phases : phase list;  (** sorted by [total_s], largest first *)
    counters : (string * int) list;  (** sorted by name *)
    histograms : hist list;  (** sorted by name *)
  }

  val percentile : float array -> float -> float
  (** [percentile sorted q]: the nearest-rank [q]-quantile of an
      ascending array ([0.] when empty), the rule the [p*] fields of
      {!hist} use. *)

  val collect : unit -> t
  (** Merge every domain's buffer into aggregate tables.  Spans are
      attributed per domain (each stream nests independently), then
      summed across domains; unterminated spans are ignored. *)

  val counter : t -> string -> int

  val print : t -> unit
  (** Per-phase, counter and histogram tables via {!Hca_util.Tabular}. *)
end

module Trace : sig
  val chrome_of_streams :
    ?meta:(string * string) list ->
    epoch:float ->
    (int * event list) list ->
    string
  (** Chrome trace-event / Perfetto JSON ("traceEvents" array) over
      arbitrary per-track streams: one thread track per stream id
      (named [domain-<id>]), "B"/"E" pairs for spans, "i" instants,
      cumulative "C" counter series, raw "C" gauges for histogram
      samples.  Timestamps are microseconds relative to [epoch];
      [meta] lands in ["otherData"]. *)

  val to_chrome_json : ?meta:(string * string) list -> unit -> string
  (** {!chrome_of_streams} over the global trace buffer ({!events})
      with the global {!epoch}. *)

  val write : ?meta:(string * string) list -> string -> unit
  (** [write path] saves {!to_chrome_json} to [path]. *)

  val write_streams :
    ?meta:(string * string) list ->
    string ->
    (int * event list) list ->
    unit
  (** Save explicit streams (a ring dump, a request capture) with the
      epoch pinned to their earliest timestamp. *)
end

(** The flight recorder: a fixed-size per-domain ring of recent
    [`Begin]/[`End]/[`Instant] events that is cheap enough to leave
    armed in a production daemon, then dumped as a valid Chrome trace
    when a request crashes, expires or runs slow — a post-mortem for
    exactly the requests nobody predicted they would need to trace. *)
module Ring : sig
  val arm : ?capacity:int -> unit -> unit
  (** Arm with [capacity] events per domain (default 4096, min 16).
      Domains (re)allocate their ring lazily on the next event. *)

  val disarm : unit -> unit

  val armed : unit -> bool

  val capacity : unit -> int

  val dump : unit -> (int * event list) list
  (** Chronological per-domain streams of whatever the rings currently
      hold, rebalanced so every stream nests (overwritten [`Begin]s
      drop their orphan [`End]s; still-open spans get synthetic ends).
      Safe while other domains keep writing — their tail events may be
      torn off, never the structure. *)

  val write : ?meta:(string * string) list -> string -> unit
  (** {!Trace.write_streams} of {!dump} (tagged [recorder=flight]). *)
end

(** Per-request capture: everything the {e calling domain} records
    between [start] and [stop], for request-scoped trace files.  The
    daemon runs each job on one worker domain, so a capture around the
    job's work closure is the complete request trace. *)
module Capture : sig
  val start : unit -> unit
  (** Begin capturing on this domain (idempotent). *)

  val active : unit -> bool

  val stop : unit -> event list
  (** End the capture and return its rebalanced stream ([] when no
      capture was active). *)

  val write : ?meta:(string * string) list -> string -> event list -> unit
  (** Save one captured stream as a standalone Chrome trace (tagged
      [recorder=request]). *)
end
