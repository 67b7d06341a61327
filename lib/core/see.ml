type outcome = {
  state : State.t;
  alternatives : State.t list;
  explored : int;
  routed : int;
  window : int * int;
}

(* Priority list of unassigned nodes, computed once per subproblem: the
   exploration picks nodes in this fixed order so that all the partial
   solutions of a frontier talk about the same prefix of the list.

   Nodes wired to an output port jump the queue, grouped by port: a port
   accepts a single real in-arc, so its feeders must agree on a cluster
   — a constraint best surfaced while the resource tables are empty
   (Fig. 10 shows exactly this forced co-location).

   Also returns the IIs at which the same order comes back: only the
   Affinity regions read the II, through their capacity. *)
let out_port_group problem id =
  List.fold_left
    (fun acc (e : Problem.edge) ->
      let dst = Problem.node problem e.dst in
      match dst.Problem.pinned with
      | Some _ when Problem.succs problem e.dst = [] -> min acc e.dst
      | _ -> acc)
    max_int
    (Problem.succs problem id)

let priority_order config problem ~ii =
  let free = Problem.free_nodes problem in
  let group = out_port_group problem in
  match config.Config.priority with
  | Config.Affinity ->
      let issue =
        match Hca_machine.Pattern_graph.regular_nodes (Problem.pg problem) with
        | [] -> 0
        | nd :: _ -> Hca_machine.Resource.issue_slots nd.capacity
      in
      let region, stable_from =
        Regions.partition problem ~capacity:(max 1 (issue * ii))
      in
      let window =
        match stable_from with
        | Some c when issue > 0 -> ((c + issue - 1) / issue, max_int)
        | _ -> (ii, ii)
      in
      let h = Problem.height problem in
      let key id = (region.(id), group id, -h.(id), id) in
      ( List.stable_sort (fun a b -> compare (key a) (key b)) free,
        Some region,
        window )
  | Config.Source_order -> (free, None, (1, max_int))
  | Config.Criticality ->
      let h = Problem.height problem in
      (* Port feeders first (per port), then most critical first; ties:
         more demanding node first, then id. *)
      let key id =
        let nd = Problem.node problem id in
        (group id, -h.(id), -(nd.Problem.demand.alus + nd.Problem.demand.ags), id)
      in
      (List.stable_sort (fun a b -> compare (key a) (key b)) free, None, (1, max_int))

let candidate_clusters problem =
  Hca_machine.Pattern_graph.regular_nodes (Problem.pg problem)
  |> List.map (fun (nd : Hca_machine.Pattern_graph.node) -> nd.id)

(* A scored child of the frontier.  [Spec] is a move that was applied
   to the parent's trail, scored, and rewound — it holds no clone, only
   the recipe to replay it.  [Mat] is a state the Route Allocator
   already committed. *)
type cand =
  | Spec of {
      parent : State.t;
      cluster : Hca_machine.Pattern_graph.node_id;
      cost : float;
    }
  | Mat of State.t

let cand_cost = function Spec { cost; _ } -> cost | Mat st -> State.cost st

let solve_traced ~config ?target_ii ~backbone problem ~ii =
  let weights = config.Config.weights in
  let order, region_of, (lo, hi) = priority_order config problem ~ii in
  let root = State.create ~backbone problem in
  State.restrict_window root ~lo ~hi;
  (* A default target moves with the II, and so does every cost. *)
  let target_ii =
    match target_ii with
    | Some t -> t
    | None ->
        State.restrict_window root ~lo:ii ~hi:ii;
        ii
  in
  (* Region-tear lookahead: how many nodes of the current node's region
     are still unplaced at each position of the priority list. *)
  let remaining_region =
    match region_of with
    | None -> Array.make (List.length order) 0
    | Some region ->
        let arr = Array.of_list order in
        let n = Array.length arr in
        let rem = Array.make n 0 in
        let counts = Hashtbl.create 16 in
        for i = n - 1 downto 0 do
          let r = region.(arr.(i)) in
          let c = 1 + Option.value ~default:0 (Hashtbl.find_opt counts r) in
          Hashtbl.replace counts r c;
          rem.(i) <- c
        done;
        rem
  in
  let clusters = candidate_clusters problem in
  (* Batch-scoring scratch, reused across every frontier expansion:
     candidate clusters as a flat array and one score slot each. *)
  let clusters_arr = Array.of_list clusters in
  let scores = Array.make (max 1 (Array.length clusters_arr)) nan in
  let explored = ref 1 and routed = ref 0 in
  let penalise ~tail_of_region st c =
    let deficit = State.tear_deficit st ~cluster:c ~ii ~tail_of_region in
    if deficit > 0 then
      State.add_penalty st (weights.Cost.w_tear *. float_of_int deficit)
  in
  let expand ~tail_of_region node state =
    (* One pass over the state's flat arrays scores every candidate
       cluster (tear penalty included), with no per-candidate
       allocation; the candidate-width cut happens inside the batch, so
       only the winners pay a [Spec] record.  Each score is bit-identical
       to the cost of the [try_assign] successor after [penalise]
       (property tested), and ties keep the cluster order. *)
    let feasible =
      State.score_moves state ~node ~clusters:clusters_arr ~ii ~target_ii
        ~weights ~tail_of_region ~scores
    in
    explored := !explored + feasible;
    if feasible > 0 then
      List.map
        (fun k ->
          Spec { parent = state; cluster = clusters_arr.(k); cost = scores.(k) })
        (Hca_util.Topk.smallest_indices ~k:config.Config.candidate_width scores
           ~len:(Array.length clusters_arr))
    else if config.Config.enable_router then
        (* No-candidates action: try the Route Allocator towards every
           cluster, cheapest resulting state first. *)
        List.filter_map
          (fun c ->
            match
              Router.assign_with_routing state ~node ~cluster:c ~ii ~target_ii
                ~weights ~max_hops:config.Config.max_route_hops
            with
            | Ok st ->
                incr explored;
                incr routed;
                Some (Mat st)
            | Error _ -> None)
          clusters
    else []
  in
  (* Clones are paid here, for beam survivors only: [try_assign]
     (clone, then commit) reproduces the batch score bit for bit. *)
  let materialise ~tail_of_region node = function
    | Mat st -> st
    | Spec { parent; cluster; cost } -> (
        match
          State.try_assign parent ~node ~cluster ~ii ~target_ii ~weights
        with
        | Ok st ->
            penalise ~tail_of_region st cluster;
            assert (State.cost st = cost);
            st
        | Error _ -> assert false (* the scored move succeeded *))
  in
  let by_cost a b = compare (State.cost a) (State.cost b) in
  (* Frontier cuts: stable top-k selection instead of sorting whole
     child lists only to drop everything past the beam.  Both cuts now
     rank candidates, not clones: the cost was computed on the trail,
     so losing candidates never pay an allocation. *)
  let best_k_cand k cands = Hca_util.Topk.smallest ~k ~key:cand_cost cands in
  let rec loop pos frontier = function
    | [] -> (
        match List.sort by_cost frontier with
        | best :: rest ->
            Ok
              {
                state = best;
                alternatives = rest;
                explored = !explored;
                routed = !routed;
                window = State.window best;
              }
        | [] -> Error (Problem.name problem ^ ": empty frontier"))
    | node :: rest ->
        let tail_of_region = remaining_region.(pos) in
        (* Observation only — list lengths are paid when tracing. *)
        if Hca_obs.Obs.enabled () then
          Hca_obs.Obs.observe "see.frontier"
            (float_of_int (List.length frontier));
        let children =
          List.concat_map
            (fun st ->
              best_k_cand config.Config.candidate_width
                (expand ~tail_of_region node st))
            frontier
        in
        if Hca_obs.Obs.enabled () then
          Hca_obs.Obs.observe "see.children"
            (float_of_int (List.length children));
        (match children with
        | [] ->
            let pg = Problem.pg problem in
            let diagnosis =
              match frontier with
              | [] -> ""
              | st :: _ ->
                  let per_cluster =
                    List.map
                      (fun c ->
                        match
                          State.try_assign st ~node ~cluster:c ~ii ~target_ii
                            ~weights
                        with
                        | Ok _ -> Printf.sprintf "@%d: ok?!" c
                        | Error m -> Printf.sprintf "@%d: %s" c m)
                      clusters
                  in
                  " | " ^ String.concat "; " per_cluster
            in
            Error
              (Printf.sprintf
                 "%s: no candidates for node %s at II=%d (pg: %d regular, %d \
                  in-ports [%s], %d out-ports [%s], max_in=%d)%s"
                 (Problem.name problem)
                 (Problem.node problem node).Problem.label ii
                 (List.length (Hca_machine.Pattern_graph.regular_nodes pg))
                 (List.length (Hca_machine.Pattern_graph.in_ports pg))
                 (String.concat ";"
                    (List.map
                       (fun nd ->
                         string_of_int
                           (List.length
                              (Hca_machine.Pattern_graph.port_values nd)))
                       (Hca_machine.Pattern_graph.in_ports pg)))
                 (List.length (Hca_machine.Pattern_graph.out_ports pg))
                 (String.concat ";"
                    (List.map
                       (fun nd ->
                         string_of_int
                           (List.length
                              (Hca_machine.Pattern_graph.port_values nd)))
                       (Hca_machine.Pattern_graph.out_ports pg)))
                 (Hca_machine.Pattern_graph.max_in pg)
                 diagnosis)
        | _ ->
            (* The beam needs no duplicate filter: children come from
               distinct (parent, cluster) pairs of an already distinct
               frontier, placement only grows, and forwards and
               penalties only accumulate (property tested). *)
            let winners = best_k_cand config.Config.beam_width children in
            loop (pos + 1)
              (List.map (materialise ~tail_of_region node) winners)
              rest)
  in
  loop 0 [ root ] order

let solve ?(config = Config.default) ?target_ii ?(backbone = []) problem ~ii =
  Hca_obs.Obs.span "see.solve"
    ~args:[ ("problem", Problem.name problem); ("ii", string_of_int ii) ]
    (fun () -> solve_traced ~config ?target_ii ~backbone problem ~ii)

