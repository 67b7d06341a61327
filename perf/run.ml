(* What one workload run hands back for metric derivation, the timing
   estimators, and the measurement loop the in-process workloads
   share. *)

module Obs = Hca_obs.Obs
module Json = Hca_serve.Json

let now = Hca_util.Clock.now

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  work_dir : string;  (** scratch space inside the checkout, removed at exit *)
}

(* One timed op: which input it ran, how long it took, and the MB it
   allocated when the library reports that. *)
type sample = { key : int; ms : float; mb : float }

type round = { round_s : float; samples : sample list }

type phase = { wall_s : float; rounds : round list }

(* How a workload's timings are read.  On a host shared with other
   tenants an op can take half again as long at random moments, and
   interference only ever adds time, so repeated inputs are costed by
   their fastest op.

   - [Sequential]: one caller repeats every input each round; an op
     costs its input's fastest time, and throughput is ops over their
     summed costs.
   - [Parallel]: rounds run their ops on a pool; ops are costed as
     above, and throughput is ops per round over the fastest round.
   - [Served]: every op is a distinct request under load, and each
     round is one daemon lifetime; every figure is taken per round from
     the latencies as measured, and the median over rounds reported. *)
type timing = Sequential | Parallel | Served

type t = {
  timing : timing;
  setup_s : float array;  (** one per set-up repetition *)
  measured : phase;  (** untraced; the first half of a [--trace 1] run *)
  traced : phase option;  (** the traced second half of a [--trace 1] run *)
  peak_rss_mb : float;
  mii_sum : int;
  copies_sum : int;
  attempted : int;
  failed : int;
  digest : string;
  rows : string list;  (** per-input detail lines, printed before the result *)
  notes : (string * Json.t) list;
  layers : (string * float) list;  (** per-layer values only this workload has *)
}

let samples p = List.concat_map (fun r -> r.samples) p.rounds

let ops p = List.length (samples p)

(* The groups of op times, in ms, that each figure is computed over
   before the median across groups is taken: one group of op costs in
   process, one group of latencies per round when served. *)
let groups timing p =
  match timing with
  | Served -> List.map (fun r -> Array.of_list (List.map (fun s -> s.ms) r.samples)) p.rounds
  | Sequential | Parallel ->
      let best = Hashtbl.create 64 in
      List.iter
        (fun s ->
          match Hashtbl.find_opt best s.key with
          | Some m when m <= s.ms -> ()
          | _ -> Hashtbl.replace best s.key s.ms)
        (samples p);
      [ Array.of_list (List.map (fun s -> Hashtbl.find best s.key) (samples p)) ]

let median_over_groups timing p f = Stats.median (Array.of_list (List.map f (groups timing p)))

(* With complete rounds every input is costed equally often, so this is
   also the geometric mean over inputs. *)
let geomean_ms timing p = median_over_groups timing p Stats.geomean

let ops_per_s timing p =
  let per_round r = float_of_int (List.length r.samples) /. r.round_s in
  match timing with
  | Sequential -> median_over_groups timing p (fun costs -> 1000. *. float_of_int (Array.length costs) /. Array.fold_left ( +. ) 0. costs)
  | Parallel -> List.fold_left (fun acc r -> Float.max acc (per_round r)) 0. p.rounds
  | Served -> Stats.median (Array.of_list (List.map per_round p.rounds))

(* Set-up (building the inputs and running one op) is short and noisy.
   It is timed a few times before the first round and once more after
   every untraced round, off the clock, so that its median spans the
   run as the other figures do. *)
type setup = { once : unit -> unit; mutable samples_s : float list }

let time_setup s =
  let t0 = now () in
  s.once ();
  s.samples_s <- (now () -. t0) :: s.samples_s

let setup cfg once =
  let s = { once; samples_s = [] } in
  for _ = 1 to if cfg.smoke then 1 else 3 do
    time_setup s
  done;
  s

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> failwith "VmHWM missing from /proc status"
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
      in
      go ())

(* Splits the run between an untraced and a traced phase when tracing,
   so the trace overhead is measured inside the same process. *)
let phase_seconds cfg = if cfg.trace then cfg.seconds /. 2. else cfg.seconds

(* Rounds of steps until [seconds] have passed and at least [min_ops]
   samples were taken.  A round only starts when about half of it still
   fits, so complete rounds keep every input equally represented.  When
   [layers] is given, each step runs under Obs tracing inside an
   [hcabench.op] span, and the span summary is folded into [layers]
   between steps, off the clock, which bounds the trace buffer to one
   step's events.  [between] runs after every round, off the clock. *)
let rounds ~seconds ~min_ops ?layers ?(between = ignore) round =
  let paused = ref 0. in
  let t0 = now () in
  let elapsed () = now () -. t0 -. !paused in
  let n = ref 0 and rounds = ref [] in
  let more () =
    match !rounds with
    | [] -> true
    | done_ ->
        !n < min_ops || elapsed () +. (elapsed () /. float_of_int (List.length done_) /. 2.) < seconds
  in
  if layers <> None then Obs.enable ();
  while more () do
    let r0 = elapsed () in
    let samples =
      List.concat_map
        (fun step ->
          match layers with
          | None -> step ()
          | Some agg ->
              let s = Obs.span "hcabench.op" step in
              let tc = now () in
              Layers.absorb agg (Obs.Summary.collect ());
              Obs.reset ();
              paused := !paused +. (now () -. tc);
              s)
        (round ())
    in
    n := !n + List.length samples;
    rounds := { round_s = elapsed () -. r0; samples } :: !rounds;
    let tb = now () in
    between ();
    paused := !paused +. (now () -. tb)
  done;
  if layers <> None then Obs.disable ();
  { wall_s = elapsed (); rounds = List.rev !rounds }

(* A fresh seeded order of [0 .. n-1] per call. *)
let shuffler seed =
  let rng = Hca_util.Prng.create seed in
  fun n ->
    let a = Array.init n Fun.id in
    Hca_util.Prng.shuffle rng a;
    Array.to_list a

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)
