(** Load-test client for the compile daemon: replays seeded {!Hca_gen}
    traffic over the Unix-socket transport and reports throughput and
    latency tails.

    Each of [jobs] client workers owns one connection, floods its share
    of the [count] submissions first, then collects every result with
    [result wait:true] — so the daemon's queue actually backs up and
    the measured latency includes queue wait, exactly what the deadline
    budget charges.  The p50/p95/p99 figures are nearest-rank
    percentiles of the sorted latencies
    ({!Hca_obs.Obs.Summary.percentile}); the tracer is left alone.

    Every reply that carries a report is decoded with
    {!Hca_core.Report.of_json}; a reply it rejects fails the run with
    the decoder's message.  With [verify], every served report is
    checked bit-identical ({!Hca_core.Report.invariant_string}) against
    a local one-shot {!Hca_core.Report.run} of the same seeded kernel —
    the proof that the shared warm store changes the clock, never the
    answer.  A report the job's deadline cut short ([timed_out]) holds
    the best attempt finished before a wall-clock cut-off, which no
    local run reproduces: it is counted as not verifiable instead.

    [json_out] writes bench-style NDJSON: one ["serve_loadtest"] row
    per seed (its state and latency, plus
    {!Hca_core.Report.quality_json} when the job ran, so [bench_guard]
    can compare a cold and a warm lifetime) and one ["_aggregate"] row
    with the throughput/latency/cache figures. *)

type summary = {
  count : int;
  ok : int;  (** state ["done"] *)
  failed : int;
  deadline_exceeded : int;
  errors : int;
      (** failed/cancelled results, counted through the client-side
          {!Hca_obs.Obs.Registry} ([hca_client_errors_total] delta) *)
  timeouts : int;  (** deadline-exceeded results, same accounting *)
  cache_hits : int;  (** daemon-side delta across this run *)
  cache_misses : int;
  cache_entries : int;  (** store size after the run *)
  loaded_entries : int;  (** what the daemon inherited at startup *)
  elapsed_s : float;
  throughput_rps : float;
  p50_ms : float;  (** end-to-end submit → result, queue wait included *)
  p95_ms : float;
  p99_ms : float;
  submit_p50_ms : float;
      (** per-verb wire round-trip quantiles, estimated from the
          [hca_client_rpc_ms{verb=...}] registry histograms (deltas
          across this run) *)
  submit_p95_ms : float;
  result_p50_ms : float;  (** includes the server-side wait for jobs *)
  result_p95_ms : float;
  verified : int;  (** local re-runs compared (0 without [verify]) *)
  verify_mismatches : int;
  verify_skipped : int;
      (** deadline-cut ([timed_out]) reports, which a local unbounded
          run cannot reproduce, so [verify] leaves them uncompared *)
}

type served = {
  seed : int;
  kernel : string;
  state : string;  (** the job's final state, as the daemon names it *)
  report : Hca_core.Report.t option;  (** [None] for a job that never ran *)
  latency_s : float;
}
(** One submission as the client saw it. *)

type verdict =
  | Identical  (** same {!Hca_core.Report.invariant_string} as a local run *)
  | Differs
  | Unverifiable  (** a deadline-cut report: not compared *)
  | Unreported  (** no report came back *)

val verify_served : max_size:int option -> served -> verdict
(** The [verify] check of one submission: its report against a local
    one-shot {!Hca_core.Report.run} of the same seeded kernel
    ({!Daemon.gen_kernel} with [max_size]) on the reference fabric. *)

val rpc_once : path:string -> string -> (Hca_util.Json.t, string) result
(** One request line over a throwaway connection: connect, send,
    parse the one-line reply (an [{"ok":false}] reply or any transport
    failure is [Error]).  What the [hca top] dashboard polls with. *)

val run :
  path:string ->
  ?count:int ->
  ?jobs:int ->
  ?seed0:int ->
  ?max_size:int ->
  ?deadline_s:float ->
  ?verify:bool ->
  ?json_out:string ->
  unit ->
  (summary, string) result
(** Defaults: [count = 25], [jobs = 2], [seed0 = 1] (seeds
    [seed0 .. seed0+count-1]), no per-job deadline.  Connection
    attempts retry for a few seconds so the client can start before
    the daemon finishes binding.  [Error] carries the first transport
    or protocol failure. *)

val print_summary : summary -> unit
(** Human-readable report on stdout. *)
