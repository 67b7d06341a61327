open Hca_ddg
open Hca_machine
open Hca_core

type status = Optimal | Feasible | Timeout | Unsat

type probe = {
  k : int;
  verdict : Sat.result;
  conflicts : int;
  propagations : int;
  learnt : int;
  reused : int;
  time_s : float;
}

type t = {
  status : status;
  final_mii : int option;
  lower_bound : int;
  assignment : int array option;
  copies : int;
  ii_used : int;
  explored : int;
  propagations : int;
  reused_hits : int;
  learnt_total : int;
  probes : probe list;
  runtime_s : float;
  alloc_mb : float;
  minor_gcs : int;
  error : string option;
}

let search ?(strict = false) ?(budget_s = 10.) ?max_conflicts ?max_ii
    ?incumbent ?(reuse = true) fabric ddg =
  Hca_obs.Obs.span "oracle.run" ~args:[ ("kernel", Ddg.name ddg) ]
  @@ fun () ->
  let t0 = Hca_util.Clock.now () in
  let meter = Report.Alloc_meter.start () in
  let deadline = t0 +. budget_s in
  let problem = Problem.flat fabric ddg in
  let inst = Encode.of_problem problem in
  let ini = Mii.mii ddg (Dspfabric.resources fabric) in
  let top =
    match max_ii with Some m -> m | None -> max ini (Encode.size inst)
  in
  (* Invariant: every bound below [!lo] is refuted; [!best] is the
     smallest satisfiable bound met so far, with its model. *)
  let lo = ref ini in
  let hi = ref top in
  let best = ref None in
  let timed_out = ref false in
  let explored = ref 0 in
  let error = ref None in
  let probes = ref [] in
  let first = ref true in
  (* One encoding, one solver, many probes: each "cluster MII <= k" is
     a set of assumption literals, so everything learned at one bound
     carries to the next (DESIGN.md §16). *)
  let inc =
    if !lo <= !hi then Some (Encode.make ~strict inst ~max_k:top)
    else None
  in
  (match inc with
  | None -> ()
  | Some inc ->
      let sat = inc.Encode.enc.Encode.sat in
      while !lo <= !hi && (not !timed_out) && !error = None do
        if Hca_util.Clock.now () > deadline then timed_out := true
        else begin
          (* Probe policy.  First probe: the heuristic incumbent
             (clamped into the open range) — in relaxed mode it is
             satisfiable by construction, and its model usually
             recomputes below the probed bound, jumping several values
             at once.  Once any model is in hand, walk the upper bound
             downward: SAT probes keep jumping, and the single Unsat
             probe that ends the walk certifies optimality by
             monotonicity.  With no incumbent and no model yet, bisect —
             probing the top of a wide-open range wastes the budget on
             trivially-loose bounds. *)
          let k =
            match (!first, incumbent, !best) with
            | true, Some m, _ -> max !lo (min m !hi)
            | _, _, Some _ -> !hi
            | _ -> (!lo + !hi) / 2
          in
          first := false;
          if not reuse then Sat.clear_learnt sat;
          Sat.new_probe sat;
          let c0 = Sat.conflicts sat
          and p0 = Sat.propagations sat
          and l0 = Sat.learnt_total sat
          and r0 = Sat.reused_hits sat
          and pt0 = Hca_util.Clock.now () in
          let verdict =
            Hca_obs.Obs.span "oracle.probe"
              ~args:[ ("k", string_of_int k) ]
              (fun () ->
                Sat.solve
                  ~assumptions:(Encode.assumptions inc ~k)
                  ~deadline ?max_conflicts sat)
          in
          let d_conflicts = Sat.conflicts sat - c0
          and d_props = Sat.propagations sat - p0
          and d_learnt = Sat.learnt_total sat - l0
          and d_reused = Sat.reused_hits sat - r0 in
          Hca_obs.Obs.count "sat.conflicts" d_conflicts;
          Hca_obs.Obs.count "sat.propagations" d_props;
          Hca_obs.Obs.count "sat.learnt" d_learnt;
          Hca_obs.Obs.count "sat.reused_hits" d_reused;
          (* Live registry mirrors, summed per probe (never per
             conflict — the solver loop stays untouched). *)
          Hca_obs.Obs.Registry.inc "hca_oracle_probes_total";
          Hca_obs.Obs.Registry.inc ~by:d_conflicts "hca_oracle_conflicts_total";
          Hca_obs.Obs.Registry.inc ~by:d_props "hca_oracle_propagations_total";
          Hca_obs.Obs.Registry.inc ~by:d_learnt "hca_oracle_learnt_total";
          Hca_obs.Obs.Registry.inc ~by:d_reused "hca_oracle_reused_hits_total";
          probes :=
            {
              k;
              verdict;
              conflicts = d_conflicts;
              propagations = d_props;
              learnt = d_learnt;
              reused = d_reused;
              time_s = Hca_util.Clock.now () -. pt0;
            }
            :: !probes;
          explored := !explored + d_conflicts;
          match verdict with
          | Sat.Sat ->
              let a = Encode.decode inst inc.Encode.enc in
              (* Independent re-check: the clauses and the cost terms
                 must agree on what they bounded. *)
              let got = Encode.cluster_mii_of_assignment inst a in
              if got > k && not strict then
                error :=
                  Some
                    (Printf.sprintf
                       "internal: model at k=%d recomputes to cluster MII %d" k
                       got)
              else begin
                (* In relaxed mode the recomputed MII [got] is itself a
                   feasible bound (the same model satisfies every window
                   at [got]); strict mode adds k-scaled wire constraints
                   the recompute does not cover, so only the probed
                   bound is certified there. *)
                let m = if strict then k else min k got in
                (match !best with
                | Some (k', _) when k' <= m -> ()
                | _ -> best := Some (m, a));
                hi := min !hi (m - 1)
              end
          | Sat.Unsat -> lo := max !lo (k + 1)
          | Sat.Unknown -> timed_out := true
        end
      done);
  let status, final_mii, assignment, ii_used =
    match !best with
    | Some (k, a) ->
        let st = if !lo >= k then Optimal else Feasible in
        (st, Some (max ini k), Some a, k)
    | None ->
        if !error <> None || !timed_out then (Timeout, None, None, 0)
        else (Unsat, None, None, 0)
  in
  let sat_stats f = match inc with Some i -> f i.Encode.enc.Encode.sat | None -> 0 in
  {
    status;
    final_mii;
    lower_bound = max ini !lo;
    assignment;
    copies =
      (match !best with
      | Some (_, a) -> Encode.copies_of_assignment inst a
      | None -> 0);
    ii_used;
    explored = !explored;
    propagations = sat_stats Sat.propagations;
    reused_hits = sat_stats Sat.reused_hits;
    learnt_total = sat_stats Sat.learnt_total;
    probes = List.rev !probes;
    runtime_s = Hca_util.Clock.now () -. t0;
    alloc_mb = Report.Alloc_meter.mb meter;
    minor_gcs = Report.Alloc_meter.minor_gcs meter;
    error =
      (match (!error, !timed_out) with
      | (Some _ as e), _ -> e
      | None, true -> Some "search budget exhausted"
      | None, false -> None);
  }

(* A kernel needing a resource class the machine lacks fits no II:
   every bound is refuted without an encoding or a probe. *)
let run ?strict ?budget_s ?max_conflicts ?max_ii ?incumbent ?reuse fabric ddg =
  match Mii.unmappable ddg (Dspfabric.resources fabric) with
  | None ->
      search ?strict ?budget_s ?max_conflicts ?max_ii ?incumbent ?reuse fabric
        ddg
  | Some reason ->
      {
        status = Unsat;
        final_mii = None;
        lower_bound = max_int;
        assignment = None;
        copies = 0;
        ii_used = 0;
        explored = 0;
        propagations = 0;
        reused_hits = 0;
        learnt_total = 0;
        probes = [];
        runtime_s = 0.;
        alloc_mb = 0.;
        minor_gcs = 0;
        error = Some reason;
      }

let status_to_string = function
  | Optimal -> "optimal"
  | Feasible -> "feasible"
  | Timeout -> "timeout"
  | Unsat -> "unsat"

let pp ppf t =
  Format.fprintf ppf
    "status=%s final=%s lower>=%s copies=%d conflicts=%d props=%d reused=%d \
     probes=%d t=%.2fs"
    (status_to_string t.status)
    (match t.final_mii with Some m -> string_of_int m | None -> "-")
    (if t.lower_bound = max_int then "inf" else string_of_int t.lower_bound)
    t.copies t.explored t.propagations t.reused_hits
    (List.length t.probes) t.runtime_s;
  match t.error with
  | Some e -> Format.fprintf ppf " (%s)" e
  | None -> ()
