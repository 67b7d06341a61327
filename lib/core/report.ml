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

let base_row ~kernel ~machine ddg fabric_resources =
  let mii_rec = Mii.rec_mii ddg in
  let mii_res = Mii.res_mii ddg fabric_resources in
  {
    kernel;
    machine;
    n_instr = Ddg.size ddg;
    mii_rec;
    mii_res;
    ini_mii = max mii_rec mii_res;
    legal = false;
    final_mii = None;
    ii_used = 0;
    copies = 0;
    forwards = 0;
    max_wire_load = 0;
    explored_states = 0;
    routed_moves = 0;
    cache_hits = 0;
    cache_misses = 0;
    reused_subproblems = 0;
    memo_enabled = false;
    timed_out = false;
    runtime_s = 0.0;
    alloc_mb = 0.0;
    minor_gcs = 0;
    error = None;
    result = None;
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
  let alloc_mb () = Alloc_meter.mb meter in
  let minor_gcs () = Alloc_meter.minor_gcs meter in
  let base =
    {
      (base_row ~kernel:(Ddg.name ddg) ~machine:(Dspfabric.name fabric) ddg
         (Dspfabric.resources fabric))
      with
      memo_enabled = memo;
    }
  in
  let deadline = Option.map (fun d -> t0 +. d) deadline_s in
  let past_deadline () =
    match deadline with
    | None -> false
    | Some d -> Hca_util.Clock.now () > d
  in
  (* One subproblem memo per run — II probes of the same kernel share
     it (the cache is domain-safe and its keys embed the II) — unless
     the caller passed a longer-lived one, e.g. the compile daemon's
     persistent cross-request store. *)
  let hcache =
    if not memo then None
    else match cache with Some c -> Some c | None -> Some (Hierarchy.create_cache ())
  in
  let attempt ii =
    Hca_obs.Obs.span "report.probe" ~args:[ ("ii", string_of_int ii) ]
    @@ fun () ->
    let stats = Hierarchy.create_stats () in
    let r =
      match
        Hierarchy.solve ~config ~target_ii:base.ini_mii ?cache:hcache ~stats
          fabric ddg ~ii
      with
      | Error e -> Error e
      | Ok res ->
          let metrics = Metrics.of_result res in
          let legal = Coherency.is_legal res in
          Ok (res, metrics, legal)
    in
    (r, stats)
  in
  (* Climb to the first feasible II, then give the SEE [ii_patience]
     more values of slack and keep the best legal outcome. *)
  (* Wire constraints do not relax with the II, so a deep climb is
     pointless: cap the search well before the configured ceiling. *)
  let ii_limit = min config.Config.max_ii ((4 * base.ini_mii) + 12) in
  (* Memoised attempts.  At [jobs > 1] the climb probes [jobs]
     consecutive IIs speculatively on the domain pool; the probes past
     the first feasible II are exactly the patience candidates, so a
     kernel whose iniMII is feasible finishes in a single parallel
     round.  The climb itself still commits to the lowest feasible II
     in order, so the outcome is identical to the sequential walk. *)
  let cache = Hashtbl.create 16 in
  let eval ii =
    match Hashtbl.find_opt cache ii with
    | Some (r, _) -> r
    | None ->
        let r, stats = attempt ii in
        Hashtbl.replace cache ii (r, stats);
        r
  in
  (* Memo counters of the attempts the sequential walk would have
     made — speculative probes past that set are excluded, so the
     figures match at any [jobs] (each attempt's counters only depend
     on its own II: the memo keys embed the II, so attempts never see
     each other's entries). *)
  let sum_stats iis =
    List.fold_left
      (fun (h, m, r) ii ->
        match Hashtbl.find_opt cache ii with
        | Some (_, s) ->
            ( h + s.Hierarchy.cache_hits,
              m + s.Hierarchy.cache_misses,
              r + s.Hierarchy.reused_subproblems )
        | None -> (h, m, r))
      (0, 0, 0) iis
  in
  let range lo hi = List.init (max 0 (hi - lo + 1)) (fun i -> lo + i) in
  let eval_batch iis =
    match List.filter (fun ii -> not (Hashtbl.mem cache ii)) iis with
    | [] -> ()
    | fresh ->
        List.iter
          (fun (ii, rs) -> Hashtbl.replace cache ii rs)
          (Hca_util.Domain_pool.parallel_map ~jobs
             (fun ii -> (ii, attempt ii))
             fresh)
  in
  (* A deadline is checked between II attempts (the climb and patience
     loops), never inside one: the structured [timed_out] flag replaces
     the silent truncation a budget used to cause, and the best legal
     attempt finished before the cut-off still comes back. *)
  let rec climb ii last_error =
    if ii > ii_limit then (None, last_error, false)
    else if past_deadline () then (None, last_error, true)
    else begin
      if jobs > 1 && not (Hashtbl.mem cache ii) then
        eval_batch (List.init (min jobs (ii_limit - ii + 1)) (fun i -> ii + i));
      match eval ii with
      | Ok ok -> (Some (ii, ok), None, false)
      | Error e -> climb (ii + 1) (Some e)
    end
  in
  let first, error, timed_out = climb base.ini_mii None in
  match first with
  | None ->
      let cache_hits, cache_misses, reused_subproblems =
        sum_stats (range base.ini_mii ii_limit)
      in
      finalize
      {
        base with
        error =
          (if timed_out then Some "deadline exceeded before a feasible II"
           else error);
        timed_out;
        cache_hits;
        cache_misses;
        reused_subproblems;
        runtime_s = Hca_util.Clock.now () -. t0;
        alloc_mb = alloc_mb ();
        minor_gcs = minor_gcs ();
      }
  | Some (ii0, first_ok) ->
      let better_than (_, m1, l1) (_, m2, l2) =
        match (l1, l2) with
        | true, false -> true
        | false, true -> false
        | _ ->
            (m1 : Metrics.t).final_mii < (m2 : Metrics.t).final_mii
      in
      (* Only attempts the sequential walk would have made count
         towards the explored/routed totals, so the figures match at
         any [jobs]. *)
      let explored = ref 0 and routed = ref 0 in
      let count (res, _, _) =
        explored := !explored + res.Hierarchy.explored;
        routed := !routed + res.Hierarchy.routed
      in
      count first_ok;
      let patience_iis =
        let hi = min config.Config.max_ii (ii0 + config.Config.ii_patience) in
        List.init (max 0 (hi - ii0)) (fun i -> ii0 + 1 + i)
      in
      if jobs > 1 then eval_batch patience_iis;
      let best = ref (ii0, first_ok) in
      let cut_short = ref false in
      List.iter
        (fun ii ->
          if past_deadline () then cut_short := true
          else
            match eval ii with
            | Ok ok ->
                count ok;
                if better_than ok (snd !best) then best := (ii, ok)
            | Error _ -> ())
        patience_iis;
      let ii_used, (res, metrics, legal) = !best in
      let cache_hits, cache_misses, reused_subproblems =
        sum_stats (range base.ini_mii ii0 @ patience_iis)
      in
      finalize
      {
        base with
        legal;
        timed_out = !cut_short;
        final_mii = Some metrics.Metrics.final_mii;
        ii_used;
        copies = metrics.Metrics.copies;
        forwards = metrics.Metrics.forwards;
        max_wire_load = metrics.Metrics.max_wire_load;
        explored_states = !explored;
        routed_moves = !routed;
        cache_hits;
        cache_misses;
        reused_subproblems;
        runtime_s = Hca_util.Clock.now () -. t0;
        alloc_mb = alloc_mb ();
        minor_gcs = minor_gcs ();
        error = (if legal then None else Some "coherency check failed");
        result = Some res;
      }

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
