open Hca_machine

(* Flat data layout: everything the per-probe hot path reads lives in
   int/float arrays indexed by PG node id — no [Resource.t] records, no
   per-cluster lists, no boxed floats.  Every move goes through one
   path ([begin_move], [route_arcs], then [rewind] or [commit]'s keep)
   on a preallocated arena, so a move allocates no undo record once
   the arena is warm. *)
type t = {
  problem : Problem.t;
  (* Immutable per-problem caches, shared across clones. *)
  pg_n : int;
  max_in : int;
  regs : int array;  (* regular PG node ids, ascending *)
  is_reg : Bytes.t;  (* per PG node: regular-cluster flag *)
  cap_alus : int array;  (* per PG node capacity components *)
  cap_ags : int array;
  slots_sum : int array;  (* cap alus + ags: the utilisation divisor *)
  slots_issue : int array;  (* max cap alus ags: the issue window *)
  scc : int array;
  (* Per-state solution. *)
  place : int array;  (* problem node -> PG node, -1 when unassigned *)
  flow : Copy_flow.t;
  dem_alus : int array;  (* per-cluster demand, struct-of-arrays *)
  dem_ags : int array;
  fwd_val : int Hca_util.Vec.t;  (* Route-Allocator forwards, push order *)
  fwd_via : int Hca_util.Vec.t;
  mutable carried_cuts : int;
  (* [0] = cached score; [1] = accumulated penalties.  A flat float
     array so the hot-path stores never box. *)
  fl : float array;
  mutable assigned : int;
  (* Per-cluster cost contributions, valid for the window [cache_ii]
     (-1 = stale).  A move touches at most a handful of clusters, so
     the move path refreshes only those instead of re-walking every PG
     regular node per candidate. *)
  node_util : float array;
  node_proj : int array;
  node_fanin : float array;
  mutable cache_ii : int;
  (* The arena of a Route-Allocator probe left applied between
     {!probe_force} and {!abort_force}. *)
  mutable probe : scratch option;
  (* The search's II window [win.(0)] to [win.(1)]: the capacity
     windows at which every II-dependent test made so far would have
     gone the same way.  One per search root, shared by every copy. *)
  win : int array;
}

(* The move arena: preallocated, pooled per domain and checked out for
   one move (or one open probe), so the SEE's beam states carry no
   scratch arrays at all. *)
and scratch = {
  mutable cap : int;  (* arrays sized for PGs up to this many nodes *)
  (* Undo scalars of the applied move. *)
  mutable node : int;
  mutable cluster : int;
  mutable dem_alus0 : int;
  mutable dem_ags0 : int;
  mutable carried0 : int;
  mutable cache_ii0 : int;
  mutable fwd_len0 : int;
  mutable fmark : Copy_flow.mark;
  (* Routing outcome: the SEE's walk leaves its first blocked arc as
     [src * pg_n + dst]; the Route Allocator's collects every blocked
     [(value, src, dst)], newest first. *)
  mutable blocked_arc : int;
  mutable blocked : (int * int * int) list;
  (* Deduplicated regular clusters the move mutated, with the pre-move
     contribution of each saved at its arena slot while the SEE scores
     the move.  [tmask] is the membership bitset that makes the dedup
     O(1). *)
  mutable touched : int array;
  mutable touched_len : int;
  mutable tmask : Hca_util.Bitset.t;
  mutable tr_util : float array;
  mutable tr_proj : int array;
  mutable tr_fanin : float array;
  terms : float array;  (* [fold_terms] output, then the score *)
}

let grow_scratch s cap =
  s.cap <- cap;
  s.touched <- Array.make cap 0;
  s.touched_len <- 0;
  s.tmask <- Hca_util.Bitset.create cap;
  s.tr_util <- Array.make cap 0.0;
  s.tr_proj <- Array.make cap 0;
  s.tr_fanin <- Array.make cap 0.0

(* Domain-local free list: probes of different states interleave
   freely (each checkout is its own arena), and domains never share a
   pool, so no locking is needed. *)
let scratch_pool : scratch list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let acquire_scratch cap =
  let pool = Domain.DLS.get scratch_pool in
  match !pool with
  | s :: rest ->
      pool := rest;
      if s.cap < cap then grow_scratch s cap;
      s
  | [] ->
      let s =
        {
          cap = 0;
          node = -1;
          cluster = -1;
          dem_alus0 = 0;
          dem_ags0 = 0;
          carried0 = 0;
          cache_ii0 = -1;
          fwd_len0 = 0;
          fmark = Copy_flow.no_mark;
          blocked_arc = -1;
          blocked = [];
          touched = [||];
          touched_len = 0;
          tmask = Hca_util.Bitset.create 0;
          tr_util = [||];
          tr_proj = [||];
          tr_fanin = [||];
          terms = Array.make 4 0.0;
        }
      in
      grow_scratch s cap;
      s

let release_scratch s =
  let pool = Domain.DLS.get scratch_pool in
  pool := s :: !pool

let problem t = t.problem

let placement t id = if t.place.(id) < 0 then None else Some t.place.(id)

let is_complete t = t.assigned = Problem.size t.problem

let flow t = t.flow

(* The accumulators stop at the last regular id; ports past the end
   hold no demand by construction. *)
let demand t c =
  if c >= Array.length t.dem_alus then Resource.zero
  else { Resource.alus = t.dem_alus.(c); ags = t.dem_ags.(c) }

(* Derived from the placement array on demand: only the CLI dump and a
   couple of tests read it, so states carry no cluster->members reverse
   index at all — one less structure to maintain, clone and rewind on
   the probe path. *)
let cluster_nodes t c =
  let acc = ref [] in
  for id = Array.length t.place - 1 downto 0 do
    if t.place.(id) = c then acc := id :: !acc
  done;
  !acc

let forwards t =
  let acc = ref [] in
  for i = 0 to Hca_util.Vec.length t.fwd_val - 1 do
    acc := (Hca_util.Vec.get t.fwd_val i, Hca_util.Vec.get t.fwd_via i) :: !acc
  done;
  !acc (* newest first, like the list it replaced *)

let is_reg t c = c >= 0 && c < t.pg_n && Bytes.unsafe_get t.is_reg c <> '\000'

let create ?(backbone = []) problem =
  let pg = Problem.pg problem in
  let n = Problem.size problem in
  let pg_n = Pattern_graph.size pg in
  let is_reg = Bytes.make pg_n '\000' in
  let cap_alus = Array.make pg_n 0 in
  let cap_ags = Array.make pg_n 0 in
  let slots_sum = Array.make pg_n 0 in
  let slots_issue = Array.make pg_n 0 in
  let regs = ref [] in
  Array.iter
    (fun (nd : Pattern_graph.node) ->
      (match nd.kind with
      | Pattern_graph.Regular ->
          Bytes.set is_reg nd.id '\001';
          regs := nd.id :: !regs
      | Pattern_graph.In_port _ | Pattern_graph.Out_port _ -> ());
      cap_alus.(nd.id) <- nd.capacity.Resource.alus;
      cap_ags.(nd.id) <- nd.capacity.Resource.ags;
      slots_sum.(nd.id) <- nd.capacity.Resource.alus + nd.capacity.Resource.ags;
      slots_issue.(nd.id) <- Resource.issue_slots nd.capacity)
    (Pattern_graph.nodes pg);
  let regs = Array.of_list (List.rev !regs) in
  (* The mutable per-cluster accumulators are only ever indexed by
     regular-node ids (every write is [is_reg]-guarded), and fabric PGs
     number their regular nodes contiguously at the front, so the five
     arrays a beam survivor copies need [max_reg_id + 1] slots, not
     [pg_n] — the ports at the tail would only ever hold zeros. *)
  let n_dem = max 1 (1 + Array.fold_left max (-1) regs) in
  let flow = Copy_flow.create ~max_in_ports:(Problem.max_in_ports problem) pg in
  List.iter (fun (src, dst) -> Copy_flow.reserve_neighbor flow ~src ~dst) backbone;
  let t =
    {
      problem;
      pg_n;
      max_in = Pattern_graph.max_in pg;
      regs;
      is_reg;
      cap_alus;
      cap_ags;
      slots_sum;
      slots_issue;
      scc = Problem.scc_of problem;
      place = Array.make n (-1);
      flow;
      dem_alus = Array.make n_dem 0;
      dem_ags = Array.make n_dem 0;
      fwd_val = Hca_util.Vec.create ();
      fwd_via = Hca_util.Vec.create ();
      carried_cuts = 0;
      fl = Array.make 2 0.0;
      assigned = 0;
      node_util = Array.make n_dem 0.0;
      node_proj = Array.make n_dem 1;
      node_fanin = Array.make n_dem 0.0;
      cache_ii = -1;
      probe = None;
      win = [| 1; max_int |];
    }
  in
  Array.iter
    (fun (nd : Problem.node) ->
      match nd.pinned with
      | Some c ->
          t.place.(nd.id) <- c;
          t.assigned <- t.assigned + 1
      | None -> ())
    (Problem.nodes problem);
  t

(* The one record copy: every per-state array exactly as it stands —
   mid-move too, since [Copy_flow.snapshot] is legal under an open
   mark.  [regs]/[is_reg]/capacity caches/[scc] are immutable, so
   copies share them; the move arena is pooled, so copies carry none;
   the II window belongs to the search, so copies share it too. *)
let copy t =
  {
    t with
    place = Array.copy t.place;
    flow = Copy_flow.snapshot t.flow;
    dem_alus = Array.copy t.dem_alus;
    dem_ags = Array.copy t.dem_ags;
    fwd_val = Hca_util.Vec.copy t.fwd_val;
    fwd_via = Hca_util.Vec.copy t.fwd_via;
    fl = Array.copy t.fl;
    node_util = Array.copy t.node_util;
    node_proj = Array.copy t.node_proj;
    node_fanin = Array.copy t.node_fanin;
    probe = None;
  }

let clone t =
  if Option.is_some t.probe then invalid_arg "State.clone: probe in flight";
  copy t

(* [copy] into a state the search no longer needs: the same fields, blit
   into [dst]'s own arrays, so the SEE's beam recycles its dead states
   instead of allocating a clone per survivor. *)
let copy_into ~src ~dst =
  if src.win != dst.win then
    invalid_arg "State.copy_into: states of different searches";
  if Option.is_some src.probe || Option.is_some dst.probe then
    invalid_arg "State.copy_into: probe in flight";
  let blit a b = Array.blit a 0 b 0 (Array.length a) in
  blit src.place dst.place;
  Copy_flow.snapshot_into ~src:src.flow ~dst:dst.flow;
  blit src.dem_alus dst.dem_alus;
  blit src.dem_ags dst.dem_ags;
  Hca_util.Vec.copy_into ~src:src.fwd_val ~dst:dst.fwd_val;
  Hca_util.Vec.copy_into ~src:src.fwd_via ~dst:dst.fwd_via;
  dst.carried_cuts <- src.carried_cuts;
  Array.blit src.fl 0 dst.fl 0 2;
  dst.assigned <- src.assigned;
  blit src.node_util dst.node_util;
  blit src.node_proj dst.node_proj;
  blit src.node_fanin dst.node_fanin;
  dst.cache_ii <- src.cache_ii

(* One cluster's cost terms, recomputed from its demand accumulators and
   the flow's O(1) counters.  [id] must be a regular cluster. *)
let refresh_node t ~ii id =
  let slots = t.slots_sum.(id) in
  if slots > 0 then begin
    let used = t.dem_alus.(id) + t.dem_ags.(id) in
    t.node_util.(id) <- float_of_int used /. float_of_int (slots * ii)
  end;
  t.node_proj.(id) <-
    Cost.cluster_mii_flat ~d_alus:t.dem_alus.(id) ~d_ags:t.dem_ags.(id)
      ~c_alus:t.cap_alus.(id) ~c_ags:t.cap_ags.(id)
      ~receives:(Copy_flow.in_pressure t.flow id)
      ~max_in:t.max_in;
  let sat =
    float_of_int (Copy_flow.real_in_count t.flow id)
    /. float_of_int t.max_in
  in
  t.node_fanin.(id) <- sat *. sat

let refresh_all t ~ii =
  for k = 0 to Array.length t.regs - 1 do
    refresh_node t ~ii t.regs.(k)
  done;
  t.cache_ii <- ii

let ensure_cache t ~ii = if t.cache_ii <> ii then refresh_all t ~ii

(* The one fold over the cached per-cluster terms, in the order of a
   from-scratch walk, so incremental and reference costs are
   bit-identical.  Leaves max util, util spread and fan-in saturation
   in [acc] (a float array, so nothing boxes) and returns the projected
   II. *)
let[@inline] fold_terms t acc =
  let max_util = ref 0.0 and min_util = ref infinity in
  let projected = ref 1 in
  let fanin_sat = ref 0.0 in
  for k = 0 to Array.length t.regs - 1 do
    let id = t.regs.(k) in
    if t.slots_sum.(id) > 0 then begin
      let util = t.node_util.(id) in
      if util > !max_util then max_util := util;
      if util < !min_util then min_util := util
    end;
    if t.node_proj.(id) > !projected then projected := t.node_proj.(id);
    fanin_sat := !fanin_sat +. t.node_fanin.(id)
  done;
  let min_util = if !min_util = infinity then 0.0 else !min_util in
  acc.(0) <- !max_util;
  acc.(1) <- !max_util -. min_util;
  acc.(2) <- !fanin_sat;
  !projected

let aggregate t ~ii =
  let acc = Array.make 3 0.0 in
  let projected_ii = fold_terms t acc in
  {
    Cost.copies = Copy_flow.copy_count t.flow;
    max_util = acc.(0);
    util_spread = acc.(1);
    projected_ii;
    target_ii = ii;
    used_in_ports = Copy_flow.used_in_ports_count t.flow;
    fanin_sat = acc.(2);
    carried_cuts = t.carried_cuts;
  }

(* [Cost.score (aggregate t ~ii)] without the summary record: the
   fold's float terms stay in [acc] and the score lands in [acc.(3)], so
   nothing boxes on the way in or out. *)
let[@inline] score_now t acc ~ii ~weights =
  let projected_ii = fold_terms t acc in
  Cost.score_terms weights acc
    ~copies:(Copy_flow.copy_count t.flow)
    ~projected_ii ~target_ii:ii
    ~used_in_ports:(Copy_flow.used_in_ports_count t.flow)
    ~carried_cuts:t.carried_cuts

let summary t ~ii =
  ensure_cache t ~ii;
  aggregate t ~ii

let cost t = t.fl.(0) +. t.fl.(1)

let add_penalty t p = t.fl.(1) <- t.fl.(1) +. p

let free_issue_slots t ~cluster ~ii =
  (t.slots_issue.(cluster) * ii) - (t.dem_alus.(cluster) + t.dem_ags.(cluster))

let window t = (t.win.(0), t.win.(1))

let restrict_window t ~lo ~hi =
  if lo > t.win.(0) then t.win.(0) <- lo;
  if hi < t.win.(1) then t.win.(1) <- hi

(* The least II at which [d] slots fit [cap] slots per cycle: 0 for no
   demand, [max_int] when no II does. *)
let ii_needed d cap =
  if d <= 0 then 0 else if cap <= 0 then max_int else (d + cap - 1) / cap

(* Inlined [Resource.fits] on the struct-of-arrays demand. *)
let fits_at t ~cluster ~d_alus ~d_ags ii =
  d_alus <= t.cap_alus.(cluster) * ii
  && d_ags <= t.cap_ags.(cluster) * ii
  && d_alus + d_ags <= t.slots_issue.(cluster) * ii

let fits_need t ~cluster ~d_alus ~d_ags =
  max
    (max
       (ii_needed d_alus t.cap_alus.(cluster))
       (ii_needed d_ags t.cap_ags.(cluster)))
    (ii_needed (d_alus + d_ags) t.slots_issue.(cluster))

(* The test holds at [ii'] iff [ii' >= fits_need], so a pass at [ii]
   holds down to that need and a failure up to one below it.  The
   window's own bounds are tested by multiplication first, so the
   divisions run only when the window narrows (or while [hi] is still
   unbounded). *)
let fits t ~cluster ~d_alus ~d_ags ~ii =
  let ok = fits_at t ~cluster ~d_alus ~d_ags ii in
  let w = t.win in
  if ok then begin
    if w.(0) < ii && not (fits_at t ~cluster ~d_alus ~d_ags w.(0)) then
      w.(0) <- fits_need t ~cluster ~d_alus ~d_ags
  end
  else if
    w.(1) > ii && (w.(1) = max_int || fits_at t ~cluster ~d_alus ~d_ags w.(1))
  then begin
    let need = fits_need t ~cluster ~d_alus ~d_ags in
    if need < max_int && need <= w.(1) then w.(1) <- need - 1
  end;
  ok

(* A positive deficit is a penalty that moves with the II, so the
   window closes on [ii].  At [ii'] the deficit is [excess - issue * ii'],
   so one at most 0 stays so from [ceil (excess / issue)] up. *)
let tear_deficit t ~cluster ~ii ~tail_of_region =
  let deficit = tail_of_region - 1 - free_issue_slots t ~cluster ~ii in
  let issue = t.slots_issue.(cluster) in
  let excess = deficit + (issue * ii) in
  let w = t.win in
  if deficit > 0 then restrict_window t ~lo:ii ~hi:ii
  else if w.(0) < ii && excess > issue * w.(0) then
    w.(0) <- ii_needed excess issue;
  deficit

(* Route-Allocator hop feasibility: would [via] still fit its resource
   table after spending one ALU slot re-emitting a value?  The BFS asks
   this per visited node, so it must not build records. *)
let can_host_forward t ~via ~ii =
  is_reg t via
  && fits t ~cluster:via ~d_alus:(t.dem_alus.(via) + 1) ~d_ags:t.dem_ags.(via)
       ~ii

let recompute_cost t ~target_ii ~weights =
  refresh_all t ~ii:target_ii;
  t.fl.(0) <- Cost.score weights (aggregate t ~ii:target_ii)

let same_circuit t a b = t.scc.(a) >= 0 && t.scc.(a) = t.scc.(b)

(* Touched-cluster recording: deduplicated via the bitset, ports
   filtered out at the source (only regular clusters have cost
   contributions to refresh). *)
let touch t s c =
  if
    Bytes.unsafe_get t.is_reg c <> '\000'
    && not (Hca_util.Bitset.mem s.tmask c)
  then begin
    Hca_util.Bitset.set s.tmask c;
    s.touched.(s.touched_len) <- c;
    s.touched_len <- s.touched_len + 1
  end

(* The move path.  Every move — the SEE's scoring, its materialisation
   and the Route Allocator's forced assignment — is [begin_move], then
   one [route_arcs] walk, then one [rewind] (or, to keep it, [commit]'s
   re-score), all on the input state under a pooled arena.  Errors are
   preallocated constants, so a rejected candidate allocates nothing. *)

let err_assigned = Error "node already assigned"
let err_not_regular = Error "target is not a regular cluster"
let err_exhausted = Error "resource table exhausted under target II"

(* [isAssignable]: on success, save the undo scalars, open a flow mark
   and apply the placement and its demand to [t] itself. *)
let begin_move t s ~node ~cluster ~ii =
  if t.place.(node) >= 0 then err_assigned
  else if not (is_reg t cluster) then err_not_regular
  else
    let nd = Problem.node t.problem node in
    let d_alus = t.dem_alus.(cluster) + nd.Problem.demand.Resource.alus in
    let d_ags = t.dem_ags.(cluster) + nd.Problem.demand.Resource.ags in
    if not (fits t ~cluster ~d_alus ~d_ags ~ii) then err_exhausted
    else begin
      s.node <- node;
      s.cluster <- cluster;
      s.dem_alus0 <- t.dem_alus.(cluster);
      s.dem_ags0 <- t.dem_ags.(cluster);
      s.carried0 <- t.carried_cuts;
      s.cache_ii0 <- t.cache_ii;
      s.fwd_len0 <- Hca_util.Vec.length t.fwd_val;
      s.fmark <- Copy_flow.push_mark t.flow;
      t.place.(node) <- cluster;
      t.dem_alus.(cluster) <- d_alus;
      t.dem_ags.(cluster) <- d_ags;
      t.assigned <- t.assigned + 1;
      touch t s cluster;
      Ok ()
    end

(* Route the arcs between the moved node and its already-placed
   neighbours ([out]: the node's succs, else its preds), recording
   touched clusters and carried cuts.  A blocked arc stops the SEE's
   walk (false, arc left in [s.blocked_arc]); with [collect] the Route
   Allocator's walk records it in [s.blocked] and goes on.  Partial
   mutations are the caller's to rewind.  Hand-rolled recursion: the
   per-probe loop must not allocate closures. *)
let rec route_edges t s ~collect ~out = function
  | [] -> true
  | (e : Problem.edge) :: rest ->
      let src = if out then s.cluster else t.place.(e.src) in
      let dst = if out then t.place.(e.dst) else s.cluster in
      if src < 0 || dst < 0 || src = dst then route_edges t s ~collect ~out rest
      else if Copy_flow.can_add t.flow ~src ~dst then begin
        Copy_flow.add_copy t.flow ~src ~dst e.value;
        touch t s dst;
        if e.distance > 0 || same_circuit t e.src e.dst then
          t.carried_cuts <- t.carried_cuts + 1;
        route_edges t s ~collect ~out rest
      end
      else if collect then begin
        s.blocked <- (e.value, src, dst) :: s.blocked;
        route_edges t s ~collect ~out rest
      end
      else begin
        s.blocked_arc <- (src * t.pg_n) + dst;
        false
      end

let route_arcs t s ~collect =
  route_edges t s ~collect ~out:false (Problem.preds t.problem s.node)
  && route_edges t s ~collect ~out:true (Problem.succs t.problem s.node)

let clear_touched s =
  for i = 0 to s.touched_len - 1 do
    Hca_util.Bitset.clear s.tmask s.touched.(i)
  done;
  s.touched_len <- 0

(* The one rewind: drop the forwards injected since [begin_move] (and
   their ALU slots), restore the undo scalars, unwind the flow to the
   move's mark and clear the touched set. *)
let rewind t s =
  let fwd_len = Hca_util.Vec.length t.fwd_via in
  if fwd_len > s.fwd_len0 then begin
    for i = s.fwd_len0 to fwd_len - 1 do
      let via = Hca_util.Vec.get t.fwd_via i in
      t.dem_alus.(via) <- t.dem_alus.(via) - 1
    done;
    Hca_util.Vec.truncate t.fwd_val s.fwd_len0;
    Hca_util.Vec.truncate t.fwd_via s.fwd_len0
  end;
  t.place.(s.node) <- -1;
  t.dem_alus.(s.cluster) <- s.dem_alus0;
  t.dem_ags.(s.cluster) <- s.dem_ags0;
  t.assigned <- t.assigned - 1;
  t.carried_cuts <- s.carried0;
  t.cache_ii <- s.cache_ii0;
  Copy_flow.undo_to_mark t.flow s.fmark;
  clear_touched s

(* Score of the applied move with [t]'s cache warm at [target_ii]:
   refresh the touched clusters, fold, then put their pre-move terms
   back (each cluster appears once, so any restore order is exact). *)
let[@inline] score_applied t s ~target_ii ~weights =
  for i = 0 to s.touched_len - 1 do
    let id = s.touched.(i) in
    s.tr_util.(i) <- t.node_util.(id);
    s.tr_proj.(i) <- t.node_proj.(id);
    s.tr_fanin.(i) <- t.node_fanin.(id);
    refresh_node t ~ii:target_ii id
  done;
  score_now t s.terms ~ii:target_ii ~weights;
  for i = 0 to s.touched_len - 1 do
    let id = s.touched.(i) in
    t.node_util.(id) <- s.tr_util.(i);
    t.node_proj.(id) <- s.tr_proj.(i);
    t.node_fanin.(id) <- s.tr_fanin.(i)
  done;
  s.terms.(3)

let score_moves t ~node ~clusters ~ii ~target_ii ~weights ~tail_of_region
    ~scores =
  if t.place.(node) >= 0 then
    invalid_arg "State.score_moves: node already assigned";
  ensure_cache t ~ii:target_ii;
  let base_extra = t.fl.(1) in
  let feasible = ref 0 in
  let s = acquire_scratch t.pg_n in
  for k = 0 to Array.length clusters - 1 do
    let cluster = clusters.(k) in
    scores.(k) <- nan;
    match begin_move t s ~node ~cluster ~ii with
    | Error _ -> ()
    | Ok () ->
        if not (route_arcs t s ~collect:false) then
          Hca_obs.Obs.count "state.spec_reject" 1
        else begin
          let cost_v = score_applied t s ~target_ii ~weights in
          (* The region-tear lookahead the SEE applies to each surviving
             move, with the exact float-op order of
             [add_penalty]-then-[cost]. *)
          let deficit = tear_deficit t ~cluster ~ii ~tail_of_region in
          let extra =
            if deficit > 0 then
              base_extra +. (weights.Cost.w_tear *. float_of_int deficit)
            else base_extra
          in
          scores.(k) <- cost_v +. extra;
          incr feasible;
          Hca_obs.Obs.count "state.spec_apply" 1
        end;
        rewind t s
  done;
  release_scratch s;
  !feasible

(* Incremental twin of {!recompute_cost}: refresh only the clusters the
   move touched. *)
let update_cost t s ~target_ii ~weights =
  if t.cache_ii <> target_ii then refresh_all t ~ii:target_ii
  else
    for i = 0 to s.touched_len - 1 do
      refresh_node t ~ii:target_ii s.touched.(i)
    done;
  score_now t s.terms ~ii:target_ii ~weights;
  t.fl.(0) <- s.terms.(3)

(* Commit in place: the move is applied to [t]'s trail, re-scored
   incrementally and kept — its flow mark is dropped instead of undone
   and the touched set cleared — so [t] itself becomes the successor. *)
let commit t ~node ~cluster ~ii ~target_ii ~weights =
  if Option.is_some t.probe then invalid_arg "State.commit: probe in flight";
  let s = acquire_scratch t.pg_n in
  let r =
    match begin_move t s ~node ~cluster ~ii with
    | Error _ as e -> e
    | Ok () ->
        if route_arcs t s ~collect:false then begin
          update_cost t s ~target_ii ~weights;
          Copy_flow.drop_mark t.flow s.fmark;
          clear_touched s;
          Ok ()
        end
        else begin
          let blocked = s.blocked_arc in
          rewind t s;
          Error
            (Printf.sprintf "no communication pattern %d->%d" (blocked / t.pg_n)
               (blocked mod t.pg_n))
        end
  in
  release_scratch s;
  r

(* Clone, then commit. *)
let try_assign t ~node ~cluster ~ii ~target_ii ~weights =
  let t' = clone t in
  Result.map (fun () -> t') (commit t' ~node ~cluster ~ii ~target_ii ~weights)

let probe_force t ~node ~cluster ~ii =
  if Option.is_some t.probe then
    invalid_arg "State.probe_force: probe in flight";
  let s = acquire_scratch t.pg_n in
  match begin_move t s ~node ~cluster ~ii with
  | Error m ->
      release_scratch s;
      Error m
  | Ok () ->
      s.blocked <- [];
      ignore (route_arcs t s ~collect:true : bool);
      t.probe <- Some s;
      Ok (List.rev s.blocked)

let open_probe t fn =
  match t.probe with
  | Some s -> s
  | None -> invalid_arg (fn ^ ": no probe in flight")

let commit_probe t ~target_ii ~weights =
  ignore (open_probe t "State.commit_probe" : scratch);
  let t' = copy t in
  recompute_cost t' ~target_ii ~weights;
  t'

let abort_force t =
  let s = open_probe t "State.abort_force" in
  rewind t s;
  release_scratch s;
  t.probe <- None

let add_forward t ~value ~via =
  t.dem_alus.(via) <- t.dem_alus.(via) + 1;
  (* The Route Allocator mutates the flow behind our back as well; its
     commit always ends in a full [recompute_cost], so just mark the
     contribution caches stale. *)
  t.cache_ii <- -1;
  ignore (Hca_util.Vec.push t.fwd_val value : int);
  ignore (Hca_util.Vec.push t.fwd_via via : int)

let fwds_equal a b =
  let n = Hca_util.Vec.length a.fwd_val in
  n = Hca_util.Vec.length b.fwd_val
  &&
  let ok = ref true in
  for i = 0 to n - 1 do
    if
      Hca_util.Vec.get a.fwd_val i <> Hca_util.Vec.get b.fwd_val i
      || Hca_util.Vec.get a.fwd_via i <> Hca_util.Vec.get b.fwd_via i
    then ok := false
  done;
  !ok

let equal a b =
  a.assigned = b.assigned
  && a.carried_cuts = b.carried_cuts
  && a.fl.(0) = b.fl.(0)
  && a.fl.(1) = b.fl.(1)
  && a.place = b.place
  && fwds_equal a b
  && Copy_flow.equal a.flow b.flow

(* Test hook: {!equal} plus the demand accumulators and the
   incremental-cost caches, so the move-path property tests can assert
   a rewind restores *every* field bit for bit. *)
let debug_identical a b =
  equal a b
  && a.dem_alus = b.dem_alus
  && a.dem_ags = b.dem_ags
  && a.cache_ii = b.cache_ii
  && a.node_util = b.node_util
  && a.node_proj = b.node_proj
  && a.node_fanin = b.node_fanin

let pp ppf t =
  Format.fprintf ppf "@[<v>state (%d/%d assigned, cost %.2f)" t.assigned
    (Problem.size t.problem) (cost t);
  Array.iteri
    (fun id c ->
      if c >= 0 then
        Format.fprintf ppf "@,  %s -> @%d"
          (Problem.node t.problem id).Problem.label c)
    t.place;
  Format.fprintf ppf "@]"

