open Hca_ddg
open Hca_machine

type subresult = {
  path : int list;
  pg : Pattern_graph.t;
  global : Instr.id array;
  value : Instr.id array;
  pin : Pattern_graph.node_id array;
  place : Pattern_graph.node_id array;
  detours : (Instr.id * Pattern_graph.node_id) list;
  flow : Copy_flow.Frozen.t;
  model : Machine_model.t;
  max_wire_load : int;
  children : subresult option array;
}

type t = {
  fabric : Dspfabric.t;
  ddg : Ddg.t;
  ii : int;
  root : subresult;
  cn_of_instr : int array;
  forwards : (Instr.id * int) list;
  explored : int;
  routed : int;
}

let ( let* ) = Result.bind

(* {1 Cross-probe subproblem memoization}

   A subproblem's result is a pure function of its identity: the level
   and path fix the PG shape, the working set and ILI fix the problem
   instance, and the capacity window / target II / configuration fix the
   search.  The driver re-solves identical subproblems whenever
   inter-level backtracking walks the beam alternatives of a parent:
   sibling subtrees whose (working set, ILI) did not change between two
   alternatives are recomputed verbatim.  The cache short-circuits those
   recomputations.

   Bit-identity: a hit returns the very result the miss computed, and
   replays the explored/routed deltas the original computation charged,
   so every aggregate of a memoised run equals the memo-off run. *)

type stats = {
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable reused_subproblems : int;
}

let create_stats () =
  { cache_hits = 0; cache_misses = 0; reused_subproblems = 0 }

type key = {
  k_kernel : string;
  k_content : int;
      (* [Ddg.content_id]: names are labels, and two different kernels
         may share one (the daemon's 32-bit content labels can collide) *)
  k_machine : string;
  k_level : int;
  k_path : int list;
  k_ws : int array;  (* ascending *)
  k_ili : Ili.t;
  k_ii : int;
  k_target_ii : int;
  k_config : Config.t;
      (* the configuration verbatim, not a fingerprint: lookups compare
         structurally, so distinct configurations can never collide *)
}

type entry = {
  e_res : (subresult, string) result;
  e_explored : int;  (* explored-states delta the computation charged *)
  e_routed : int;
  e_subproblems : int;  (* subtree size, 1 for a failed subproblem *)
}

(* Lock-striped so concurrent II probes ([Report.run ~jobs]) can share
   one cache: keys embed the II, so probes never race on the same key —
   the stripes only serialise physical table access. *)
type cache = (Mutex.t * (key, entry) Hashtbl.t) array

let stripes = 16

let create_cache () =
  Array.init stripes (fun _ -> (Mutex.create (), Hashtbl.create 64))

let stripe_of (cache : cache) key = cache.(Hashtbl.hash key land (stripes - 1))

(* A snapshot is the cache's payload without its mutexes: plain data end
   to end (the solver's records hold no closures), so [Marshal] can ship
   it to disk and a warm restart rebuilds an equivalent cache. *)
type snapshot = (key * entry) array

let snapshot (cache : cache) : snapshot =
  let acc = ref [] in
  Array.iter
    (fun (m, tbl) ->
      Mutex.lock m;
      Hashtbl.iter (fun k e -> acc := (k, e) :: !acc) tbl;
      Mutex.unlock m)
    cache;
  Array.of_list !acc

let snapshot_length (s : snapshot) = Array.length s

let cache_length (cache : cache) =
  Array.fold_left (fun acc (_, tbl) -> acc + Hashtbl.length tbl) 0 cache

let cache_find cache key =
  let m, tbl = stripe_of cache key in
  Mutex.lock m;
  let r = Hashtbl.find_opt tbl key in
  Mutex.unlock m;
  r

let cache_store cache key entry =
  let m, tbl = stripe_of cache key in
  Mutex.lock m;
  if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key entry;
  Mutex.unlock m

(* A snapshot's keys are distinct, so each goes straight in, into
   tables sized for them. *)
let restore (s : snapshot) : cache =
  let cache =
    Array.init stripes (fun _ ->
        (Mutex.create (), Hashtbl.create (2 * Array.length s / stripes)))
  in
  Array.iter (fun (k, e) -> Hashtbl.add (snd (stripe_of cache k)) k e) s;
  cache

(* {1 Reuse across II probes}

   A set-level search reads the II only through its capacity window, and
   {!See.outcome.window} says at which windows it would come back
   unchanged.  One table per run (kernel, machine, configuration and
   target II fixed) keeps, per subproblem, the problem it built — which
   no II reads — and its successful outcomes, so a later probe whose
   window falls inside a stored one skips the search.  Leaves are left
   out: they search at the probe's own II, and their working sets and
   interfaces change with every parent alternative, so storing them
   costs memory for little reuse. *)

type wkey = { w_level : int; w_path : int list; w_ws : int list; w_ili : Ili.t }

type wentry = {
  built : (Problem.t * (int * int) list, string) result;
      (* the problem and its backbone *)
  mutable outcomes : See.outcome list;
      (* successes, each cut to the states [commit] reads *)
}

type windows = { lock : Mutex.t; table : (wkey, wentry) Hashtbl.t }

let create_windows () = { lock = Mutex.create (); table = Hashtbl.create 64 }

let covers ~ii (o : See.outcome) = fst o.window <= ii && ii <= snd o.window

(* The built problem and the outcome of searching it at [ii]: a stored
   one whose window holds [ii], else [search]'s, then stored with the
   [keep] states [commit] reads.  The climb only goes up, so outcomes
   wholly below [ii] are dropped.  Domains racing on one key at most
   turn a hit into a miss, which searches to the same outcome. *)
let reuse_search w key ~ii ~build ~search ~keep =
  let e, hit =
    Mutex.protect w.lock (fun () ->
        let e =
          match Hashtbl.find_opt w.table key with
          | Some e ->
              e.outcomes <-
                List.filter
                  (fun (o : See.outcome) -> snd o.window >= ii)
                  e.outcomes;
              e
          | None ->
              let e = { built = build (); outcomes = [] } in
              Hashtbl.add w.table key e;
              e
        in
        (e, List.find_opt (covers ~ii) e.outcomes))
  in
  let* ((problem, _) as built) = e.built in
  match hit with
  | Some outcome ->
      Hca_obs.Obs.count "see.window_hit" 1;
      Ok (problem, outcome)
  | None ->
      let* outcome = search built in
      let outcome =
        {
          outcome with
          See.alternatives =
            List.filteri (fun i _ -> i < keep - 1) outcome.See.alternatives;
        }
      in
      Mutex.protect w.lock (fun () ->
          if not (List.exists (covers ~ii) e.outcomes) then
            e.outcomes <- outcome :: e.outcomes);
      Ok (problem, outcome)

let rec count_subresults sub =
  Array.fold_left
    (fun acc c -> match c with None -> acc | Some s -> acc + count_subresults s)
    1 sub.children

(* The committed record of a subproblem: what the readers after the
   search use of its problem, its committed state and its lowering, and
   nothing of the search machinery.  [children] are the very values
   [solve_sub] returned, so a parent shares each child with the child's
   own memo entry. *)
let record ~path problem st (mapres : Mapper.result) children =
  let field f = Array.map f (Problem.nodes problem) in
  let id_or_none = Option.value ~default:(-1) in
  {
    path;
    pg = Problem.pg problem;
    global = field (fun nd -> id_or_none nd.Problem.global);
    value = field (fun nd -> nd.Problem.value);
    pin = field (fun nd -> id_or_none nd.Problem.pinned);
    place = field (fun nd -> id_or_none (State.placement st nd.Problem.id));
    detours = State.forwards st;
    flow = mapres.Mapper.flow;
    model = mapres.Mapper.model;
    max_wire_load = mapres.Mapper.max_wire_load;
    children;
  }

let path_name path =
  match path with
  | [] -> "0"
  | _ -> "0," ^ String.concat "," (List.map string_of_int path)

let solve ?(config = Config.default) ?target_ii ?cache ?windows ?stats fabric
    ddg ~ii =
  Hca_obs.Obs.span "hierarchy.solve"
    ~args:[ ("kernel", Ddg.name ddg); ("ii", string_of_int ii) ]
  @@ fun () ->
  let target_ii = Option.value ~default:ii target_ii in
  (* Total identity: the cache may outlive this run and meet fabrics
     [Dspfabric.name] cannot tell apart (same N/M/K, different fan-outs
     or port counts).  One string serves every key of the run. *)
  let machine = Dspfabric.id fabric in
  let explored = ref 0 and routed = ref 0 in
  let rec solve_sub ~level ~path ~ws ~ili =
    match cache with
    | None -> compute_sub ~level ~path ~ws ~ili
    | Some cache -> (
        let key =
          {
            k_kernel = Ddg.name ddg;
            k_content = Ddg.content_id ddg;
            k_machine = machine;
            k_level = level;
            k_path = path;
            k_ws = Array.of_list ws;
            k_ili = ili;
            k_ii = ii;
            k_target_ii = target_ii;
            k_config = config;
          }
        in
        match cache_find cache key with
        | Some e ->
            (match stats with
            | Some s ->
                s.cache_hits <- s.cache_hits + 1;
                s.reused_subproblems <- s.reused_subproblems + e.e_subproblems
            | None -> ());
            Hca_obs.Obs.count "memo.hit" 1;
            if Hca_obs.Obs.enabled () then
              Hca_obs.Obs.instant "memo.hit"
                ~args:[ ("path", path_name path) ];
            explored := !explored + e.e_explored;
            routed := !routed + e.e_routed;
            e.e_res
        | None ->
            (match stats with
            | Some s -> s.cache_misses <- s.cache_misses + 1
            | None -> ());
            Hca_obs.Obs.count "memo.miss" 1;
            let x0 = !explored and r0 = !routed in
            let res = compute_sub ~level ~path ~ws ~ili in
            let e_subproblems =
              match res with Ok sub -> count_subresults sub | Error _ -> 1
            in
            cache_store cache key
              {
                e_res = res;
                e_explored = !explored - x0;
                e_routed = !routed - r0;
                e_subproblems;
              };
            res)
  and compute_sub ~level ~path ~ws ~ili =
    (* One span per solved subproblem, one track level per hierarchy
       level; memo hits skip this entirely (they cost no search). *)
    if not (Hca_obs.Obs.enabled ()) then compute_sub_body ~level ~path ~ws ~ili
    else
      Hca_obs.Obs.span
        ("subproblem.L" ^ string_of_int level)
        ~args:
          [ ("path", path_name path);
            ("ws", string_of_int (List.length ws)) ]
        (fun () -> compute_sub_body ~level ~path ~ws ~ili)
  and compute_sub_body ~level ~path ~ws ~ili =
    let view = Dspfabric.level_view fabric ~level in
    (* Per-child resource tables at this node: uniform machines get the
       same [cns_per_child * Resource.cn] in every slot; heterogeneous
       descriptions differ per child. *)
    let child_caps = Dspfabric.child_capacities fabric ~path in
    let name = path_name path in
    (* The problem and its backbone: nothing here reads the II. *)
    let build () =
      (* Every wire into a child burns one of the child's own input
         slots at the next level down, so stay well under the MUX
         capacity at every set level. *)
      let max_in =
        if view.Dspfabric.is_leaf then view.Dspfabric.mux_capacity
        else min view.Dspfabric.mux_capacity config.Config.leaf_feed_fanin_cap
      in
      let pg_base =
        Pattern_graph.complete ~name ~capacities:child_caps ~max_in
      in
      let pg =
        Pattern_graph.with_ports pg_base ~inputs:ili.Ili.inputs
          ~outputs:ili.Ili.outputs
      in
      let* problem =
        Problem.of_working_set ~name ~ddg ~ws ~pg
          ~max_in_ports:view.Dspfabric.max_in_ports ()
      in
      (* Planned topology backbone: greedy assignment deadlocks when the
         scarce input slots fill before every father wire has a landing
         point, so (i) every input port gets one pre-committed delivery
         arc, round-robin over the clusters, and (ii) the leftover slots
         close a ring between the clusters so any value can still reach
         any cluster by forwarding.  Reservations only shape the search:
         unused ones cost nothing at mapping time. *)
      let backbone =
        let c = view.Dspfabric.children in
        let slots = Array.make c max_in in
        let arcs = ref [] in
        List.iteri
          (fun j (nd : Pattern_graph.node) ->
            let ch = j mod c in
            if slots.(ch) > 0 then begin
              arcs := (nd.Pattern_graph.id, ch) :: !arcs;
              slots.(ch) <- slots.(ch) - 1
            end)
          (Pattern_graph.in_ports pg);
        for i = 0 to c - 1 do
          if slots.(i) > 0 then begin
            arcs := ((i + 1) mod c, i) :: !arcs;
            slots.(i) <- slots.(i) - 1
          end
        done;
        !arcs
      in
      Ok (problem, backbone)
    in
    (* Set levels keep ~20% issue headroom: the levels below will add
       receive and forwarding operations this level cannot see, and a
       cluster filled to the brim leaves them nowhere to go.  Never
       below what the working set strictly needs, though. *)
    let see_ii =
      if view.Dspfabric.is_leaf then ii
      else begin
        let demand = Resource.demand ddg ws in
        let capacity =
          Array.fold_left Resource.add Resource.zero child_caps
        in
        let floor_ii =
          (Resource.min_ii ~demand ~capacity + 1) |> min ii
        in
        max floor_ii (ii * 4 / 5)
      end
    in
    let search (problem, backbone) =
      See.solve ~config ~target_ii ~backbone problem ~ii:see_ii
    in
    let* problem, outcome =
      match windows with
      | Some w when not view.Dspfabric.is_leaf ->
          reuse_search w
            { w_level = level; w_path = path; w_ws = ws; w_ili = ili }
            ~ii:see_ii ~build ~search ~keep:config.Config.max_alternatives
      | _ ->
          let* ((problem, _) as built) = build () in
          Result.map (fun outcome -> (problem, outcome)) (search built)
    in
    let pg = Problem.pg problem in
    explored := !explored + outcome.See.explored;
    routed := !routed + outcome.See.routed;
    (* Wires made here become input ports of the children; packing them
       is the default ([mapper_spread = false]). *)
    let consolidate = not config.Config.mapper_spread in
    (* A set-level wire's payload funnels through one child cluster
       downstream, one emission slot per value — cap it at the II.  The
       leaf CN's single wire is exempt (its issue budget already bounds
       what it can emit). *)
    let wire_cap = if view.Dspfabric.is_leaf then max_int else ii in
    (* Colour the values by producer regions sized to the grandchild
       clusters this level's wires funnel into. *)
    let color =
      if view.Dspfabric.is_leaf then None
      else begin
        let grandchild_cns =
          (Dspfabric.level_view fabric ~level:(level + 1)).Dspfabric.cns_per_child
        in
        let in_ws = Hashtbl.create (List.length ws) in
        List.iter (fun g -> Hashtbl.replace in_ws g ()) ws;
        let regions =
          Regions.partition_ddg ddg ~members:ws
            ~capacity:(max 1 (grandchild_cns * ii * 4 / 5))
        in
        Some
          (fun v ->
            if Hashtbl.mem in_ws v then regions v
            else
              (* Pass-through value produced outside this working set:
                 keep it alone on its wire. *)
              1_000_000 + v)
      end
    in
    (* A leaf quad has 4 CNs x 2 input wires, half of them pinned to the
       ring backbone: feeding it more than 4 distinct wires could never
       be hooked up, so the leaf-feeding mapper works with the reduced
       budget. *)
    let feeds_leaves =
      (not view.Dspfabric.is_leaf)
      && (Dspfabric.level_view fabric ~level:(level + 1)).Dspfabric.is_leaf
    in
    let in_capacity =
      if feeds_leaves then min view.Dspfabric.mux_capacity 4
      else view.Dspfabric.mux_capacity
    in
    let commit st =
      let* mapres =
        Result.map_error
          (fun m -> Printf.sprintf "%s: mapper: %s" name m)
          (Mapper.map ~consolidate ~wire_cap ?color ~problem ~state:st
             ~in_capacity ~out_capacity:view.Dspfabric.out_capacity ())
      in
      let children = Array.make view.Dspfabric.children None in
      if view.Dspfabric.is_leaf then Ok (record ~path problem st mapres children)
      else begin
        let ws_of_child = Array.make view.Dspfabric.children [] in
        Array.iter
          (fun (nd : Problem.node) ->
            match (nd.Problem.global, State.placement st nd.Problem.id) with
            | Some g, Some c when Pattern_graph.is_regular pg c ->
                ws_of_child.(c) <- g :: ws_of_child.(c)
            | _ -> ())
          (Problem.nodes problem);
        let rec spawn i =
          if i >= view.Dspfabric.children then Ok ()
          else
            let child_ws = List.rev ws_of_child.(i) in
            let child_ili = mapres.Mapper.child_ilis.(i) in
            if child_ws = [] && Ili.is_empty child_ili then spawn (i + 1)
            else
              let* sub =
                solve_sub ~level:(level + 1) ~path:(path @ [ i ]) ~ws:child_ws
                  ~ili:child_ili
              in
              children.(i) <- Some sub;
              spawn (i + 1)
        in
        let* () = spawn 0 in
        Ok (record ~path problem st mapres children)
      end
    in
    (* Inter-level backtracking: when the best partial solution's
       subtree fails, fall back on the surviving beam alternatives. *)
    let candidates =
      List.filteri
        (fun i _ -> i < config.Config.max_alternatives)
        (outcome.See.state :: outcome.See.alternatives)
    in
    let rec try_states last_error = function
      | [] -> Error (Option.value ~default:(name ^ ": no states") last_error)
      | st :: rest -> (
          match commit st with
          | Ok sub -> Ok sub
          | Error e -> try_states (Some e) rest)
    in
    try_states None candidates
  in
  let ws = List.init (Ddg.size ddg) (fun i -> i) in
  let* root = solve_sub ~level:0 ~path:[] ~ws ~ili:Ili.empty in
  (* Harvest the leaf placements from the committed tree. *)
  let cn_of_instr = Array.make (Ddg.size ddg) (-1) in
  let forwards = ref [] in
  let depth = Dspfabric.depth fabric in
  let rec harvest sub =
    if List.length sub.path = depth - 1 then begin
      let cn_of j = Machine_desc.cn_of_path fabric (sub.path @ [ j ]) in
      Array.iteri
        (fun i pin ->
          if pin < 0 then begin
            (* the SEE returned a complete state *)
            assert (sub.place.(i) >= 0);
            let abs = cn_of sub.place.(i) in
            if sub.global.(i) >= 0 then cn_of_instr.(sub.global.(i)) <- abs
            else forwards := (sub.value.(i), abs) :: !forwards
          end)
        sub.pin;
      List.iter
        (fun (value, via) ->
          forwards := (value, cn_of via) :: !forwards)
        sub.detours
    end
    else
      Array.iter
        (function None -> () | Some c -> harvest c)
        sub.children
  in
  harvest root;
  let missing = ref [] in
  Array.iteri (fun g cn -> if cn < 0 then missing := g :: !missing) cn_of_instr;
  match !missing with
  | _ :: _ ->
      Error
        (Printf.sprintf "instructions never reached a CN: [%s]"
           (String.concat "," (List.rev_map string_of_int !missing)))
  | [] ->
      Ok
        {
          fabric;
          ddg;
          ii;
          root;
          cn_of_instr;
          forwards = !forwards;
          explored = !explored;
          routed = !routed;
        }

let subresults t =
  let rec walk sub acc =
    sub
    :: Array.fold_left
         (fun acc child ->
           match child with None -> acc | Some c -> walk c acc)
         acc sub.children
  in
  walk t.root []

let leaf_of_path t path =
  let rec go sub = function
    | [] -> Some sub
    | i :: rest -> (
        if i < 0 || i >= Array.length sub.children then None
        else match sub.children.(i) with None -> None | Some c -> go c rest)
  in
  go t.root path

let cn_count t cn =
  let ops =
    Array.fold_left (fun acc c -> if c = cn then acc + 1 else acc) 0 t.cn_of_instr
  in
  ops + List.length (List.filter (fun (_, c) -> c = cn) t.forwards)

(* A CN receives one value per copy entering it in its leaf problem's
   flow (from sibling CNs and from the wires coming down the
   hierarchy). *)
let recv_count t cn =
  match List.rev (Machine_desc.cn_path t.fabric cn) with
  | [] -> 0
  | local :: rev_leaf_path -> (
      match leaf_of_path t (List.rev rev_leaf_path) with
      | None -> 0
      | Some leaf -> Copy_flow.Frozen.in_pressure leaf.flow local)
