open Hca_ddg
open Hca_machine

module Alloc_meter = struct
  (* [Gc.allocated_bytes] and the minor-collection counter are
     per-domain in OCaml 5, so at [jobs > 1] the workers' churn is
     invisible to a meter started on the caller — the counters are for
     the [--jobs 1] layout benchmarks. *)
  type meter = { alloc0 : float; minor0 : int }

  let start () =
    {
      alloc0 = Gc.allocated_bytes ();
      minor0 = (Gc.quick_stat ()).Gc.minor_collections;
    }

  let mb m = (Gc.allocated_bytes () -. m.alloc0) /. (1024.0 *. 1024.0)

  let minor_gcs m = (Gc.quick_stat ()).Gc.minor_collections - m.minor0
end

type t = {
  kernel : string;
  machine : string;
  n_instr : int;
  mii_rec : int;
  mii_res : int;
  ini_mii : int;
  legal : bool;
  final_mii : int option;
  ii_used : int;
  copies : int;
  forwards : int;
  max_wire_load : int;
  explored_states : int;
  routed_moves : int;
  cache_hits : int;
  cache_misses : int;
  reused_subproblems : int;
  memo_enabled : bool;
  timed_out : bool;
  runtime_s : float;
  alloc_mb : float;
  minor_gcs : int;
  error : string option;
  result : Hierarchy.t option;
}

(* Live-registry accounting of every finished run.  Registry updates
   never feed back into the search, so the report itself is unchanged
   by them (see [invariant_string]). *)
let finalize r =
  let module R = Hca_obs.Obs.Registry in
  R.inc "hca_reports_total";
  R.observe "hca_report_runtime_ms" (r.runtime_s *. 1000.);
  R.observe
    ~buckets:[| 1.; 4.; 16.; 64.; 256.; 1024.; 4096. |]
    "hca_report_alloc_mb" r.alloc_mb;
  R.inc ~by:r.minor_gcs "hca_minor_gcs_total";
  r

let run ?(config = Config.default) ?(jobs = 1) ?(memo = true) ?cache
    ?deadline_s fabric ddg =
  Hca_obs.Obs.span "report.run" ~args:[ ("kernel", Ddg.name ddg) ]
  @@ fun () ->
  let t0 = Hca_util.Clock.now () in
  let meter = Alloc_meter.start () in
  let mii_rec = Mii.rec_mii ddg in
  let resources = Dspfabric.resources fabric in
  let mii_res = Mii.res_mii ddg resources in
  let ini_mii = max mii_rec mii_res in
  let deadline = Option.map (fun d -> t0 +. d) deadline_s in
  (* One subproblem memo per run — II probes of the same kernel share
     it (the cache is domain-safe and its keys embed the II) — unless
     the caller passed a longer-lived one, e.g. the compile daemon's
     persistent cross-request store. *)
  let hcache =
    if not memo then None
    else match cache with Some c -> Some c | None -> Some (Hierarchy.create_cache ())
  in
  (* ... and one set-level search table, whose windows let a probe reuse
     a search an earlier probe made at another II.  It lives for this
     run only: its keys assume the kernel, machine and target fixed. *)
  let windows = if memo then Some (Hierarchy.create_windows ()) else None in
  (* One II attempt with its memo counters, or [None] when the deadline
     passed before it started.  A deadline is checked between attempts,
     never inside one: the structured [timed_out] flag replaces the
     silent truncation a budget used to cause, and the best legal
     attempt finished before the cut-off still comes back. *)
  let attempt ii =
    match deadline with
    | Some d when Hca_util.Clock.now () > d -> None
    | _ ->
        Hca_obs.Obs.span "report.probe" ~args:[ ("ii", string_of_int ii) ]
        @@ fun () ->
        let stats = Hierarchy.create_stats () in
        let outcome =
          Result.map
            (fun res -> (res, Metrics.of_result res, Coherency.is_legal res))
            (Hierarchy.solve ~config ~target_ii:ini_mii ?cache:hcache
               ?windows ~stats fabric ddg ~ii)
        in
        Some (ii, outcome, stats)
  in
  (* The memo counters sum over the attempts made, the explored and
     routed totals over the successful ones. *)
  let finish made ~timed_out best =
    let sum f = List.fold_left (fun acc a -> acc + f a) 0 made in
    let stat f = sum (fun (_, _, s) -> f s) in
    let solved f = sum (function _, Ok (res, _, _), _ -> f res | _ -> 0) in
    let row =
      {
        kernel = Ddg.name ddg;
        machine = Dspfabric.name fabric;
        n_instr = Ddg.size ddg;
        mii_rec;
        mii_res;
        ini_mii;
        legal = false;
        final_mii = None;
        ii_used = 0;
        copies = 0;
        forwards = 0;
        max_wire_load = 0;
        explored_states = solved (fun r -> r.Hierarchy.explored);
        routed_moves = solved (fun r -> r.Hierarchy.routed);
        cache_hits = stat (fun s -> s.Hierarchy.cache_hits);
        cache_misses = stat (fun s -> s.Hierarchy.cache_misses);
        reused_subproblems = stat (fun s -> s.Hierarchy.reused_subproblems);
        memo_enabled = memo;
        timed_out;
        runtime_s = Hca_util.Clock.now () -. t0;
        alloc_mb = Alloc_meter.mb meter;
        minor_gcs = Alloc_meter.minor_gcs meter;
        error = None;
        result = None;
      }
    in
    finalize
      (match best with
      | Error error -> { row with error }
      | Ok (ii_used, (res, (metrics : Metrics.t), legal)) ->
          {
            row with
            legal;
            final_mii = Some metrics.final_mii;
            ii_used;
            copies = metrics.copies;
            forwards = metrics.forwards;
            max_wire_load = metrics.max_wire_load;
            error = (if legal then None else Some "coherency check failed");
            result = Some res;
          })
  in
  let better_than (_, m1, l1) (_, m2, l2) =
    match (l1, l2) with
    | true, false -> true
    | false, true -> false
    | _ -> (m1 : Metrics.t).final_mii < (m2 : Metrics.t).final_mii
  in
  (* Climb one II at a time to the first feasible one, capped well
     before the configured ceiling. *)
  let ii_limit = min config.Config.max_ii ((4 * ini_mii) + 12) in
  let rec climb ii made last_error =
    if ii > ii_limit then finish made ~timed_out:false (Error last_error)
    else
      match attempt ii with
      | None ->
          finish made ~timed_out:true
            (Error (Some "deadline exceeded before a feasible II"))
      | Some ((_, Error e, _) as a) -> climb (ii + 1) (a :: made) (Some e)
      | Some ((_, Ok first, _) as a) -> patience ii first (a :: made)
  (* Then give the SEE [ii_patience] more values of slack and keep the
     best legal outcome.  The window's attempts are independent, so
     they are what [jobs] spreads over a domain pool. *)
  and patience ii0 first made =
    let hi = min config.Config.max_ii (ii0 + config.Config.ii_patience) in
    let window =
      Hca_util.Domain_pool.parallel_map ~jobs attempt
        (List.init (max 0 (hi - ii0)) (fun i -> ii0 + 1 + i))
    in
    let best =
      List.fold_left
        (fun best -> function
          | Some (ii, Ok ok, _) when better_than ok (snd best) -> (ii, ok)
          | _ -> best)
        (ii0, first) window
    in
    finish
      (List.filter_map Fun.id window @ made)
      ~timed_out:(List.exists Option.is_none window)
      (Ok best)
  in
  (* A kernel needing a resource class the machine lacks fits no II:
     it is reported without a probe. *)
  match Mii.unmappable ddg resources with
  | Some reason -> finish [] ~timed_out:false (Error (Some reason))
  | None -> climb ini_mii [] None

let header = [ "Loop"; "N_Instr"; "MIIRec"; "MIIRes"; "Legal"; "Final MII" ]

let row t =
  [
    t.kernel;
    string_of_int t.n_instr;
    string_of_int t.mii_rec;
    string_of_int t.mii_res;
    (if t.legal then "yes" else "no");
    (match t.final_mii with Some m -> string_of_int m | None -> "-");
  ]

let invariant_string t =
  (* Everything a correct run determines uniquely: quality figures plus
     a digest of the actual placement.  Deliberately excludes
     [runtime_s] (wall clock), the memo counters (zero when the memo is
     off) and [memo_enabled], so the same string must come back at any
     [--jobs], memo on/off, traced or untraced. *)
  let placement =
    match t.result with
    | None -> 0
    | Some r ->
        let sig_ = Hca_util.Sig_hash.create () in
        Hca_util.Sig_hash.add_int_array sig_ r.Hierarchy.cn_of_instr;
        List.iter
          (fun (v, cn) ->
            Hca_util.Sig_hash.add_int sig_ v;
            Hca_util.Sig_hash.add_int sig_ cn)
          r.Hierarchy.forwards;
        Hca_util.Sig_hash.value sig_
  in
  Printf.sprintf
    "legal=%b final=%s ii=%d copies=%d forwards=%d wire=%d explored=%d \
     routed=%d placement=%x error=%s"
    t.legal
    (match t.final_mii with Some m -> string_of_int m | None -> "-")
    t.ii_used t.copies t.forwards t.max_wire_load t.explored_states
    t.routed_moves placement
    (match t.error with None -> "-" | Some e -> e)

(* The memo figures print even when every counter is zero — a zero line
   must still read as "memo on, nothing reusable", never be mistaken
   for the memo being off, so the disabled case is labelled. *)
let memo_string t =
  if not t.memo_enabled then "memo=off"
  else
    Printf.sprintf "memo=%d/%d (reused %d)" t.cache_hits
      (t.cache_hits + t.cache_misses)
      t.reused_subproblems

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s on %s: %d instrs, MIIRec=%d MIIRes=%d ini=%d -> %s (II target \
     %d, legal=%b)@,\
     copies=%d forwards=%d wire<=%d explored=%d routed=%d %s in %.3fs \
     (%.1f MB alloc, %d minor gcs)%s@]"
    t.kernel t.machine t.n_instr t.mii_rec t.mii_res t.ini_mii
    (match t.final_mii with
    | Some m -> "final MII " ^ string_of_int m
    | None -> "FAILED")
    t.ii_used t.legal t.copies t.forwards t.max_wire_load t.explored_states
    t.routed_moves (memo_string t) t.runtime_s t.alloc_mb t.minor_gcs
    ((if t.timed_out then " [deadline exceeded: best-so-far]" else "")
    ^ match t.error with None -> "" | Some e -> " error: " ^ e)
