type outcome =
  | Solved of Hca_core.Report.t
  | Expired
  | Crashed of string

type state = Queued | Running | Finished of outcome | Cancelled

type totals = {
  submitted : int;
  finished : int;
  cancelled : int;
  expired : int;
  crashed : int;
  cache_hits : int;
  cache_misses : int;
}

type event =
  | Submitted of { id : int; label : string; priority : int }
  | Started of { id : int; label : string; wait_s : float }
  | Done of {
      id : int;
      label : string;
      outcome : outcome;
      latency_s : float;
      run_s : float;
    }
  | Cancelled_job of { id : int; label : string; latency_s : float }

type job = {
  id : int;
  label : string;
  priority : int;
  deadline_s : float option;
  submitted_s : float;
  work : id:int -> deadline_s:float option -> Hca_core.Report.t;
  mutable jstate : state;
}

type t = {
  mutex : Mutex.t;
  done_cond : Condition.t;  (* any job reached a terminal state *)
  jobs : (int, job) Hashtbl.t;
  mutable pending : job list;  (* unsorted; popped best-first *)
  mutable next_id : int;
  mutable n_running : int;
  mutable tot : totals;
  pool : Hca_util.Domain_pool.t option;
  on_finish : (unit -> unit) option;
  on_event : (event -> unit) option;
}

let zero_totals =
  {
    submitted = 0;
    finished = 0;
    cancelled = 0;
    expired = 0;
    crashed = 0;
    cache_hits = 0;
    cache_misses = 0;
  }

let create ?pool ?on_finish ?on_event () =
  {
    mutex = Mutex.create ();
    done_cond = Condition.create ();
    jobs = Hashtbl.create 64;
    pending = [];
    next_id = 0;
    n_running = 0;
    tot = zero_totals;
    pool;
    on_finish;
    on_event;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Observers run outside the queue lock, on whichever domain caused
   the transition; a raising observer must never take the queue down. *)
let emit t ev =
  match t.on_event with
  | None -> ()
  | Some f -> ( try f ev with _ -> ())

(* Highest priority wins; FIFO (lowest id) within a priority. *)
let better a b =
  a.priority > b.priority || (a.priority = b.priority && a.id < b.id)

let pop_best t =
  match t.pending with
  | [] -> None
  | first :: _ ->
      let best = List.fold_left (fun acc j -> if better j acc then j else acc) first t.pending in
      t.pending <- List.filter (fun j -> j.id <> best.id) t.pending;
      Some best

(* Terminal transition + accounting; call with the lock held. *)
let finish_locked t job outcome =
  job.jstate <- Finished outcome;
  let tot = t.tot in
  t.tot <-
    (match outcome with
    | Expired -> { tot with finished = tot.finished + 1; expired = tot.expired + 1 }
    | Crashed _ -> { tot with finished = tot.finished + 1; crashed = tot.crashed + 1 }
    | Solved r ->
        {
          tot with
          finished = tot.finished + 1;
          cache_hits = tot.cache_hits + r.Hca_core.Report.cache_hits;
          cache_misses = tot.cache_misses + r.Hca_core.Report.cache_misses;
        });
  Condition.broadcast t.done_cond

let pump t =
  let picked =
    locked t @@ fun () ->
    match pop_best t with
    | None -> None
    | Some job ->
        let remaining =
          Option.map
            (fun d -> d -. (Hca_util.Clock.now () -. job.submitted_s))
            job.deadline_s
        in
        (match remaining with
        | Some r when r <= 0. -> finish_locked t job Expired
        | _ ->
            job.jstate <- Running;
            t.n_running <- t.n_running + 1);
        Some (job, remaining)
  in
  match picked with
  | None -> false
  | Some (job, _) when job.jstate <> Running ->
      (* Expired while queued: terminal already; still poke waiters. *)
      emit t
        (Done
           {
             id = job.id;
             label = job.label;
             outcome = Expired;
             latency_s = Hca_util.Clock.now () -. job.submitted_s;
             run_s = 0.;
           });
      Option.iter (fun f -> f ()) t.on_finish;
      true
  | Some (job, remaining) ->
      let started_s = Hca_util.Clock.now () in
      emit t
        (Started
           {
             id = job.id;
             label = job.label;
             wait_s = started_s -. job.submitted_s;
           });
      let outcome =
        match job.work ~id:job.id ~deadline_s:remaining with
        | r -> Solved r
        | exception e -> Crashed (Printexc.to_string e)
      in
      (locked t @@ fun () ->
       t.n_running <- t.n_running - 1;
       finish_locked t job outcome);
      let now = Hca_util.Clock.now () in
      emit t
        (Done
           {
             id = job.id;
             label = job.label;
             outcome;
             latency_s = now -. job.submitted_s;
             run_s = now -. started_s;
           });
      Option.iter (fun f -> f ()) t.on_finish;
      true

let submit t ~label ?(priority = 0) ?deadline_s work =
  let job, pool =
    locked t @@ fun () ->
    let id = t.next_id in
    t.next_id <- id + 1;
    let job =
      {
        id;
        label;
        priority;
        deadline_s;
        submitted_s = Hca_util.Clock.now ();
        work;
        jstate = Queued;
      }
    in
    Hashtbl.replace t.jobs id job;
    t.pending <- job :: t.pending;
    t.tot <- { t.tot with submitted = t.tot.submitted + 1 };
    (job, t.pool)
  in
  emit t (Submitted { id = job.id; label; priority });
  Option.iter
    (fun pool -> Hca_util.Domain_pool.submit pool (fun () -> ignore (pump t)))
    pool;
  job.id

let find t id = locked t @@ fun () -> Hashtbl.find_opt t.jobs id

let state t id = Option.map (fun j -> j.jstate) (find t id)

let label t id = Option.map (fun j -> j.label) (find t id)

let cancel t id =
  let poke, r =
    locked t @@ fun () ->
    match Hashtbl.find_opt t.jobs id with
    | None -> (None, Error (Printf.sprintf "unknown job %d" id))
    | Some job -> (
        match job.jstate with
        | Queued ->
            t.pending <- List.filter (fun j -> j.id <> id) t.pending;
            job.jstate <- Cancelled;
            t.tot <- { t.tot with cancelled = t.tot.cancelled + 1 };
            Condition.broadcast t.done_cond;
            (Some job, Ok ())
        | Running -> (None, Error (Printf.sprintf "job %d is already running" id))
        | Finished _ -> (None, Error (Printf.sprintf "job %d already finished" id))
        | Cancelled -> (None, Error (Printf.sprintf "job %d already cancelled" id)))
  in
  Option.iter
    (fun job ->
      emit t
        (Cancelled_job
           {
             id = job.id;
             label = job.label;
             latency_s = Hca_util.Clock.now () -. job.submitted_s;
           });
      Option.iter (fun f -> f ()) t.on_finish)
    poke;
  r

let terminal = function
  | Some (Finished _ | Cancelled) | None -> true
  | Some (Queued | Running) -> false

let rec wait t id =
  let s = state t id in
  if terminal s then s
  else if t.pool = None then begin
    (* Drive the queue ourselves; the target job is queued or running
       on this very domain's call stack, so pumping must eventually
       reach it. *)
    ignore (pump t);
    wait t id
  end
  else begin
    (locked t @@ fun () ->
     match Hashtbl.find_opt t.jobs id with
     | Some job when not (terminal (Some job.jstate)) ->
         Condition.wait t.done_cond t.mutex
     | _ -> ());
    wait t id
  end

let rec drain t =
  let busy =
    locked t @@ fun () ->
    if t.pending = [] && t.n_running = 0 then false
    else if t.pool = None then true
    else begin
      Condition.wait t.done_cond t.mutex;
      t.pending <> [] || t.n_running > 0
    end
  in
  if busy then begin
    if t.pool = None then ignore (pump t);
    drain t
  end

let queued t = locked t @@ fun () -> List.length t.pending

let running t = locked t @@ fun () -> t.n_running

let totals t = locked t @@ fun () -> t.tot
