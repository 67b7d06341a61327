(** The daemon's async job queue: submitted mapping requests wait in a
    priority queue and run on {!Hca_util.Domain_pool} workers.

    Scheduling: ready jobs run highest {e priority} first, FIFO within
    a priority (lowest id).  Every submission enqueues exactly one
    {!pump} step on the pool, and every step consumes exactly one
    queued entry — the {e best} one at the time it runs, not
    necessarily the one whose submission enqueued it — so the backlog
    drains in priority order no matter the arrival order.

    Deadlines are measured from submission, so queue wait counts
    against the budget.  A job whose deadline lapses while still queued
    finishes as {!Expired} without running; one that starts gets the
    remaining budget as its solver deadline
    ({!Hca_core.Report.run}[ ~deadline_s]) and finishes as [Solved]
    with the report's [timed_out] flag carrying the verdict.

    Without a pool, nothing runs by itself: {!pump} (or {!wait}, which
    pumps on the caller) drives jobs on the calling domain — the
    deterministic mode the protocol tests and the stdio transport's
    single-client sessions use. *)

type outcome =
  | Solved of Hca_core.Report.t
      (** ran to completion — inspect [legal]/[error]/[timed_out] *)
  | Expired  (** deadline passed before the job ever started *)
  | Crashed of string  (** the solver raised; the exception, printed *)

type state = Queued | Running | Finished of outcome | Cancelled

type totals = {
  submitted : int;
  finished : int;  (** {!Finished} jobs, any outcome *)
  cancelled : int;
  expired : int;
  crashed : int;
  cache_hits : int;  (** summed over finished reports *)
  cache_misses : int;
}

(** Lifecycle notifications for observers (telemetry, logging).
    Delivered outside the queue lock, on the domain that caused the
    transition: [Submitted] on the submitter, [Started]/[Done] on the
    running worker (or the pumping caller), [Cancelled_job] on the
    canceller.  A raising observer is swallowed — telemetry must never
    take the queue down. *)
type event =
  | Submitted of { id : int; label : string; priority : int }
  | Started of { id : int; label : string; wait_s : float }
      (** [wait_s]: time spent queued before the work ran *)
  | Done of {
      id : int;
      label : string;
      outcome : outcome;
      latency_s : float;  (** submission → terminal, queue wait included *)
      run_s : float;  (** solver wall-clock alone; 0 for queue expiry *)
    }
  | Cancelled_job of { id : int; label : string; latency_s : float }

type t

val create :
  ?pool:Hca_util.Domain_pool.t ->
  ?on_finish:(unit -> unit) ->
  ?on_event:(event -> unit) ->
  unit ->
  t
(** [pool] must be dedicated ({!Hca_util.Domain_pool.create}
    [~dedicated:true]) — the queue only feeds it via [submit].
    [on_finish] fires after every job reaches a terminal state, from
    the finishing worker's domain and outside the queue lock — the
    socket transport pokes its wake-up pipe here.  [on_event] receives
    every {!event} (also outside the lock); [Done] fires before
    [on_finish], so a blocked waiter never observes a terminal job
    whose telemetry has not landed yet. *)

val submit :
  t ->
  label:string ->
  ?priority:int ->
  ?deadline_s:float ->
  (id:int -> deadline_s:float option -> Hca_core.Report.t) ->
  int
(** Enqueue one job; returns its id (dense from 0).  The work closure
    receives its own job id (so request-scoped telemetry can name
    files before [submit] returns) and the budget {e remaining} at
    start time. *)

val state : t -> int -> state option
(** [None] for an id never issued. *)

val label : t -> int -> string option

val cancel : t -> int -> (unit, string) result
(** Only [Queued] jobs are cancellable; the error says which state got
    in the way. *)

val pump : t -> bool
(** Run the best queued job (or expire it) on the calling domain;
    [false] when nothing was queued. *)

val wait : t -> int -> state option
(** Block until the job reaches a terminal state.  Pool mode sleeps on
    a condition; without a pool it pumps the queue itself, so it cannot
    deadlock on its own job. *)

val drain : t -> unit
(** Block until no job is queued or running (graceful-shutdown barrier;
    pumps when there is no pool). *)

val queued : t -> int

val running : t -> int

val totals : t -> totals
