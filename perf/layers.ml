(* Per-layer attribution from the spans and counters lib/obs records.
   Two sources feed one aggregate: in-process runs absorb an
   [Obs.Summary] after every op, served requests are read back from
   the daemon's per-request Chrome traces. *)

module Obs = Hca_obs.Obs
module Tc = Hca_obs.Trace_check

type t = {
  self_s : (string, float) Hashtbl.t;
  total_s : (string, float) Hashtbl.t;
  calls : (string, int) Hashtbl.t;
  counters : (string, float) Hashtbl.t;
}

let create () =
  {
    self_s = Hashtbl.create 16;
    total_s = Hashtbl.create 16;
    calls = Hashtbl.create 16;
    counters = Hashtbl.create 16;
  }

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let bump_calls t k n = Hashtbl.replace t.calls k (n + Option.value ~default:0 (Hashtbl.find_opt t.calls k))

let absorb t (s : Obs.Summary.t) =
  List.iter
    (fun (p : Obs.Summary.phase) ->
      bump t.self_s p.name p.self_s;
      bump t.total_s p.name p.total_s;
      bump_calls t p.name p.calls)
    s.phases;
  List.iter (fun (name, v) -> bump t.counters name (float_of_int v)) s.counters

(* One Chrome trace as [Obs.Trace] writes it: "B"/"E" pairs nest per
   track, and each "C" counter event carries the running total of its
   (track, name) series, so the last value per series is its sum. *)
let absorb_chrome t json =
  let field k = function Tc.Obj l -> List.assoc_opt k l | _ -> None in
  let events = match field "traceEvents" json with Some (Tc.Arr l) -> l | _ -> [] in
  let str k e = match field k e with Some (Tc.Str s) -> Some s | _ -> None in
  let num k e = match field k e with Some (Tc.Num f) -> Some f | _ -> None in
  let stacks = Hashtbl.create 4 and last = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let tid = Option.value ~default:0. (num "tid" e) in
      let ts = Option.value ~default:0. (num "ts" e) /. 1e6 in
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
      match (str "ph" e, stack) with
      | Some "B", _ ->
          Hashtbl.replace stacks tid ((Option.value ~default:"?" (str "name" e), ts, ref 0.) :: stack)
      | Some "E", (name, t0, child) :: rest ->
          let d = ts -. t0 in
          bump t.total_s name d;
          bump t.self_s name (d -. !child);
          bump_calls t name 1;
          (match rest with (_, _, parent_child) :: _ -> parent_child := !parent_child +. d | [] -> ());
          Hashtbl.replace stacks tid rest
      | Some "C", _ -> (
          match (str "name" e, field "args" e) with
          | Some name, Some args -> (
              match field name args with
              | Some (Tc.Num v) -> Hashtbl.replace last (tid, name) (name, v)
              | _ -> ())
          | _ -> ())
      | _ -> ())
    events;
  Hashtbl.iter (fun _ (name, v) -> bump t.counters name v) last

let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)

let sum_prefixed tbl prefixes =
  Hashtbl.fold
    (fun k v acc ->
      if List.exists (fun p -> String.starts_with ~prefix:p k) prefixes then acc +. v else acc)
    tbl 0.

let calls t prefixes =
  float_of_int
    (Hashtbl.fold
       (fun k v acc ->
         if List.exists (fun p -> String.starts_with ~prefix:p k) prefixes then acc + v else acc)
       t.calls 0)

let counter t name = get t.counters name

(* The span names each layer owns.  [subproblem.L<k>] spans are the
   hierarchy's solved subproblems, one name per level. *)
let spans_of = function
  | "report" -> [ "report.run"; "report.probe" ]
  | "hierarchy" -> [ "hierarchy.solve"; "subproblem.L" ]
  | "see" -> [ "see.solve" ]
  | "router" -> [ "router.route" ]
  | "mapper" -> [ "mapper.map" ]
  | "oracle" -> [ "oracle.run"; "oracle.probe" ]
  | l -> invalid_arg ("Layers.spans_of " ^ l)

let ratio a b = if b > 0. then a /. b else 0.

(* Metrics derived from spans and counters alone, over [ops] traced
   ops.  Shares are of the time inside the libraries' entry points
   ([Report.run], [Oracle.run]), summed over domains, so a parallel
   workload's shares still add up to at most one. *)
let span_metrics t ~ops =
  let ops = float_of_int ops in
  let op_s = get t.total_s "report.run" +. get t.total_s "oracle.run" in
  let self l = sum_prefixed t.self_s (spans_of l) in
  let per_op x = ratio x ops in
  let share l = (l ^ ".self_share", ratio (self l) op_s) in
  let hits = counter t "memo.hit" and misses = counter t "memo.miss" in
  let applies = counter t "state.spec_apply" and rejects = counter t "state.spec_reject" in
  let oracle_s = self "oracle" in
  [
    share "report";
    ("report.probes_per_op", per_op (calls t [ "report.probe" ]));
    share "hierarchy";
    ("hierarchy.subproblems_per_op", per_op (hits +. misses));
    ("hierarchy.memo_hits_per_op", per_op hits);
    ("hierarchy.memo_misses_per_op", per_op misses);
    ("hierarchy.memo_hit_ratio", ratio hits (hits +. misses));
    share "see";
    ("see.calls_per_op", per_op (calls t [ "see.solve" ]));
    ("state.spec_applies_per_op", per_op applies);
    ("state.spec_reject_ratio", ratio rejects (applies +. rejects));
    share "router";
    ("router.attempts_per_op", per_op (counter t "router.attempt"));
    share "mapper";
    ("mapper.calls_per_op", per_op (calls t [ "mapper.map" ]));
    share "oracle";
    ("oracle.probes_per_op", per_op (calls t [ "oracle.probe" ]));
    ("sat.conflicts_per_op", per_op (counter t "sat.conflicts"));
    ("sat.propagations_per_op", per_op (counter t "sat.propagations"));
    ("sat.props_per_s", ratio (counter t "sat.propagations") oracle_s);
    ("sat.reused_hits_per_op", per_op (counter t "sat.reused_hits"));
  ]

let see_self_s t = sum_prefixed t.self_s (spans_of "see")
