type outcome = {
  state : State.t;
  alternatives : State.t list;
  explored : int;
  routed : int;
  window : int * int;
}

type reason =
  | No_candidates of { node : string; detail : string }
  | Empty_frontier

type failure = { window : int * int; problem : string; reason : reason }

let message (f : failure) ~ii =
  match f.reason with
  | No_candidates { node; detail } ->
      Printf.sprintf "%s: no candidates for node %s at II=%d%s" f.problem node
        ii detail
  | Empty_frontier -> f.problem ^ ": empty frontier"

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

(* [free] sorted lexicographically on three int keys per node id, then
   the id.  The keys are arrays computed once per node, so a comparison
   builds nothing. *)
let sort_by_keys free k1 k2 k3 =
  let cmp a b =
    let c = Int.compare k1.(a) k1.(b) in
    if c <> 0 then c
    else
      let c = Int.compare k2.(a) k2.(b) in
      if c <> 0 then c
      else
        let c = Int.compare k3.(a) k3.(b) in
        if c <> 0 then c else Int.compare a b
  in
  Array.stable_sort cmp free;
  free

let priority_order config problem ~ii =
  let free = Array.of_list (Problem.free_nodes problem) in
  let n = Problem.size problem in
  let group = Array.make n max_int in
  Array.iter (fun id -> group.(id) <- out_port_group problem id) free;
  let h = Problem.height problem in
  let neg_h = Array.map (fun x -> -x) h in
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
      (sort_by_keys free region group neg_h, Some region, window)
  | Config.Source_order -> (free, None, (1, max_int))
  | Config.Criticality ->
      (* Port feeders first (per port), then most critical first; ties:
         more demanding node first, then id. *)
      let neg_demand =
        Array.map
          (fun (nd : Problem.node) ->
            -(nd.Problem.demand.alus + nd.Problem.demand.ags))
          (Problem.nodes problem)
      in
      (sort_by_keys free group neg_h neg_demand, None, (1, max_int))

let candidate_clusters problem =
  Hca_machine.Pattern_graph.regular_nodes (Problem.pg problem)
  |> List.map (fun (nd : Hca_machine.Pattern_graph.node) -> nd.id)
  |> Array.of_list

let pg_shape pg =
  let open Hca_machine.Pattern_graph in
  let values ports =
    String.concat ";"
      (List.map (fun nd -> string_of_int (List.length (port_values nd))) ports)
  in
  Printf.sprintf
    " (pg: %d regular, %d in-ports [%s], %d out-ports [%s], max_in=%d)"
    (List.length (regular_nodes pg))
    (List.length (in_ports pg))
    (values (in_ports pg))
    (List.length (out_ports pg))
    (values (out_ports pg))
    (max_in pg)

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
    let n = Array.length order in
    let rem = Array.make n 0 in
    (match region_of with
    | None -> ()
    | Some region ->
        let counts = Hashtbl.create 16 in
        for i = n - 1 downto 0 do
          let r = region.(order.(i)) in
          let c = 1 + Option.value ~default:0 (Hashtbl.find_opt counts r) in
          Hashtbl.replace counts r c;
          rem.(i) <- c
        done);
    rem
  in
  let clusters = candidate_clusters problem in
  let n_clusters = Array.length clusters in
  let beam_width = config.Config.beam_width in
  let candidate_width = config.Config.candidate_width in
  (* The step buffers, allocated once per search: a step has at most
     [beam_width] parents, each keeping at most [per_parent] children.
     A child is its parent's index in the frontier, a cluster and a
     cost — or, for a Route-Allocator move ([ch_cluster] = -1), the
     state that move already committed. *)
  let per_parent = max 1 (min candidate_width n_clusters) in
  let cap = beam_width * per_parent in
  let ch_parent = Array.make cap 0 in
  let ch_cluster = Array.make cap 0 in
  let ch_cost = Array.make cap nan in
  let ch_routed = Array.make cap root in
  (* One score slot per candidate cluster, the per-parent cut's indices,
     and a parent's Route-Allocator states with their costs. *)
  let scores = Array.make (max 1 n_clusters) nan in
  let cut = Array.make per_parent 0 in
  let rt_state = Array.make (max 1 n_clusters) root in
  let rt_cost = Array.make (max 1 n_clusters) nan in
  (* The beam cut's survivors, and per parent the last of them that
     descends from it in place (-1: none does). *)
  let keep = Array.make beam_width 0 in
  let last_of = Array.make beam_width (-1) in
  (* The frontier and the next one, swapped every step, and the dead
     states a survivor can be copied into: frontier states no survivor
     descends from.  A step copies at most [beam_width - 1]
     survivors. *)
  let frontier = ref (Array.make beam_width root) in
  let next = ref (Array.make beam_width root) in
  let fr_len = ref 1 in
  let spare = Array.make beam_width root in
  let spare_len = ref 0 in
  let recycle st =
    if !spare_len < beam_width then begin
      spare.(!spare_len) <- st;
      incr spare_len
    end
  in
  let explored = ref 1 and routed = ref 0 in
  let n_ch = ref 0 in
  (* The cost comes as an array slot: a float argument would box. *)
  let push_child p c costs k =
    ch_parent.(!n_ch) <- p;
    ch_cluster.(!n_ch) <- c;
    ch_cost.(!n_ch) <- costs.(k);
    incr n_ch
  in
  (* One parent's children, cheapest first: the candidate-width cut of
     its batch scores — one pass over its flat arrays scores every
     candidate cluster, tear penalty included, each bit-identical to
     the cost of the committed move — or, when no cluster takes the
     node, of the states the Route Allocator reaches. *)
  let expand p st ~node ~tail_of_region =
    let feasible =
      State.score_moves st ~node ~clusters ~ii ~target_ii ~weights
        ~tail_of_region ~scores
    in
    explored := !explored + feasible;
    if feasible > 0 then begin
      let r =
        Hca_util.Topk.smallest_into ~k:candidate_width scores ~len:n_clusters
          ~into:cut
      in
      for j = 0 to r - 1 do
        push_child p clusters.(cut.(j)) scores cut.(j)
      done
    end
    else if config.Config.enable_router then begin
      (* No-candidates action: try the Route Allocator towards every
         cluster, cheapest resulting state first. *)
      let nr = ref 0 in
      for k = 0 to n_clusters - 1 do
        match
          Router.assign_with_routing st ~node ~cluster:clusters.(k) ~ii
            ~target_ii ~weights ~max_hops:config.Config.max_route_hops
        with
        | Ok st' ->
            incr explored;
            incr routed;
            rt_state.(!nr) <- st';
            rt_cost.(!nr) <- State.cost st';
            incr nr
        | Error _ -> ()
      done;
      let r =
        Hca_util.Topk.smallest_into ~k:candidate_width rt_cost ~len:!nr
          ~into:cut
      in
      for j = 0 to r - 1 do
        ch_routed.(!n_ch) <- rt_state.(cut.(j));
        push_child p (-1) rt_cost cut.(j)
      done;
      Array.fill rt_state 0 !nr root
    end
  in
  (* The survivors, in beam order.  Every one is the successor
     [try_assign] would return, without a fresh clone once the beam is
     full: a parent's last survivor is committed into the parent
     itself, after its other survivors were copied out of it into dead
     states; [clone] only serves while there are too few of those. *)
  let materialise ~node ~tail_of_region n_keep =
    let fr = !frontier and nx = !next in
    Array.fill last_of 0 !fr_len (-1);
    for w = 0 to n_keep - 1 do
      let c = keep.(w) in
      if ch_cluster.(c) >= 0 then last_of.(ch_parent.(c)) <- w
    done;
    for p = 0 to !fr_len - 1 do
      if last_of.(p) < 0 then recycle fr.(p)
    done;
    for w = 0 to n_keep - 1 do
      let c = keep.(w) in
      let cluster = ch_cluster.(c) in
      if cluster < 0 then nx.(w) <- ch_routed.(c)
      else begin
        let p = ch_parent.(c) in
        let st =
          if last_of.(p) = w then fr.(p)
          else if !spare_len > 0 then begin
            decr spare_len;
            let d = spare.(!spare_len) in
            State.copy_into ~src:fr.(p) ~dst:d;
            d
          end
          else State.clone fr.(p)
        in
        (match State.commit st ~node ~cluster ~ii ~target_ii ~weights with
        | Ok () -> ()
        | Error _ -> assert false (* the scored move succeeded *));
        let deficit = State.tear_deficit st ~cluster ~ii ~tail_of_region in
        if deficit > 0 then
          State.add_penalty st (weights.Cost.w_tear *. float_of_int deficit);
        assert (State.cost st = ch_cost.(c));
        nx.(w) <- st
      end
    done;
    (* Slots left pointing at states the search no longer needs would
       keep them alive until the search ends. *)
    Array.fill ch_routed 0 !n_ch root;
    Array.fill fr 0 !fr_len root;
    frontier := nx;
    next := fr;
    fr_len := n_keep
  in
  let fail ~node =
    let diagnosis =
      if !fr_len = 0 then ""
      else
        let st = !frontier.(0) in
        let per_cluster =
          Array.to_list
            (Array.map
               (fun c ->
                 match
                   State.try_assign st ~node ~cluster:c ~ii ~target_ii ~weights
                 with
                 | Ok _ -> Printf.sprintf "@%d: ok?!" c
                 | Error m -> Printf.sprintf "@%d: %s" c m)
               clusters)
        in
        " | " ^ String.concat "; " per_cluster
    in
    (* Read after the diagnosis: its moves narrow the window too. *)
    Error
      {
        window = State.window root;
        problem = Problem.name problem;
        reason =
          No_candidates
            {
              node = (Problem.node problem node).Problem.label;
              detail = pg_shape (Problem.pg problem) ^ diagnosis;
            };
      }
  in
  let rec loop pos =
    if pos = Array.length order then begin
      let by_cost a b = compare (State.cost a) (State.cost b) in
      match List.sort by_cost (Array.to_list (Array.sub !frontier 0 !fr_len)) with
      | best :: rest ->
          Ok
            {
              state = best;
              alternatives = rest;
              explored = !explored;
              routed = !routed;
              window = State.window best;
            }
      | [] ->
          Error
            {
              window = State.window root;
              problem = Problem.name problem;
              reason = Empty_frontier;
            }
    end
    else begin
      let node = order.(pos) in
      let tail_of_region = remaining_region.(pos) in
      if Hca_obs.Obs.enabled () then
        Hca_obs.Obs.observe "see.frontier" (float_of_int !fr_len);
      n_ch := 0;
      for p = 0 to !fr_len - 1 do
        expand p !frontier.(p) ~node ~tail_of_region
      done;
      if Hca_obs.Obs.enabled () then
        Hca_obs.Obs.observe "see.children" (float_of_int !n_ch);
      if !n_ch = 0 then fail ~node
      else begin
        (* The beam needs no duplicate filter: children come from
           distinct (parent, cluster) pairs of an already distinct
           frontier, placement only grows, and forwards and penalties
           only accumulate (property tested). *)
        let n_keep =
          Hca_util.Topk.smallest_into ~k:beam_width ch_cost ~len:!n_ch
            ~into:keep
        in
        materialise ~node ~tail_of_region n_keep;
        loop (pos + 1)
      end
    end
  in
  loop 0

let solve ?(config = Config.default) ?target_ii ?(backbone = []) problem ~ii =
  Hca_obs.Obs.span "see.solve"
    ~args:[ ("problem", Problem.name problem); ("ii", string_of_int ii) ]
    (fun () -> solve_traced ~config ?target_ii ~backbone problem ~ii)
