open Hca_machine

(* Breadth-first search over the PG for a shortest detour whose arcs are
   all individually addable in the current flow.  On a simple path every
   node is the destination of exactly one new arc, so individual
   addability implies joint addability (the in-neighbour and in-port
   budgets are per-destination). *)
(* Per-domain BFS scratch, reused across every [find_path] call: the
   search runs once per blocked value of every no-candidate fallback —
   tens of thousands of times per kernel — so it must not allocate its
   frontier.  [find_path] runs to completion with no reentrant calls,
   so one scratch per domain suffices. *)
type bfs_scratch = {
  mutable bn : int;
  mutable prev : int array;
  mutable q_node : int array;
  mutable q_hops : int array;
}

let bfs_scratch : bfs_scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { bn = 0; prev = [||]; q_node = [||]; q_hops = [||] })

let get_bfs_scratch n =
  let s = Domain.DLS.get bfs_scratch in
  if s.bn < n then begin
    s.bn <- n;
    s.prev <- Array.make n (-2);
    s.q_node <- Array.make n 0;
    s.q_hops <- Array.make n 0
  end;
  Array.fill s.prev 0 n (-2);
  s

let find_path state ~src ~dst ~ii ~max_hops =
  let flow = State.flow state in
  let pg = Copy_flow.pg flow in
  let n = Pattern_graph.size pg in
  (* Flat FIFO: every node is enqueued at most once (the [prev] guard),
     so two int arrays replace the boxed-pair Queue, and the
     hop-feasibility test reads the state's flat demand/capacity arrays
     ([State.can_host_forward]) instead of building Resource records
     per visited node. *)
  let s = get_bfs_scratch n in
  let prev = s.prev in
  let q_node = s.q_node in
  let q_hops = s.q_hops in
  prev.(src) <- -1;
  q_node.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  let found = ref false in
  while (not !found) && !head < !tail do
    let u = q_node.(!head) in
    let hops = q_hops.(!head) in
    incr head;
    if hops < max_hops then begin
      (* Potential successors straight off the flow's compact per-node
         arc arrays (ascending dst — the [potential_succs] order), so
         the scan allocates nothing. *)
      let deg = Copy_flow.out_arc_count flow u in
      let k = ref 0 in
      while (not !found) && !k < deg do
        let v = Copy_flow.out_arc_dst flow u !k in
        if prev.(v) = -2 && Copy_flow.can_add_out flow u !k then
          if v = dst then begin
            prev.(v) <- u;
            found := true
          end
          else if State.can_host_forward state ~via:v ~ii then begin
            (* An intermediate cluster spends one ALU slot re-emitting. *)
            prev.(v) <- u;
            q_node.(!tail) <- v;
            q_hops.(!tail) <- hops + 1;
            incr tail
          end;
        incr k
      done
    end
  done;
  if not !found then None
  else begin
    let rec build v acc = if v = src then src :: acc else build prev.(v) (v :: acc) in
    Some (build dst [])
  end

let route_value state ~value ~src ~dst ~ii ~max_hops =
  match find_path state ~src ~dst ~ii ~max_hops with
  | None -> false
  | Some path ->
      let flow = State.flow state in
      let rec commit = function
        | a :: (b :: _ as rest) ->
            Copy_flow.add_copy flow ~src:a ~dst:b value;
            if b <> dst then State.add_forward state ~value ~via:b;
            commit rest
        | [ _ ] | [] -> ()
      in
      commit path;
      true

(* Feasibility first, clone second: the attempt runs on the input
   state's undo trail ([State.probe_force] + detour routing in place),
   and only a successful probe pays a copy ([State.commit_probe]); the
   trail then rewinds the input state either way.  The ~80% of
   fallback attempts with no feasible detour allocate no clone at
   all. *)
let assign_routed state ~node ~cluster ~ii ~target_ii ~weights ~max_hops =
  match State.probe_force state ~node ~cluster ~ii with
  | Error _ as e -> e
  | Ok blocked ->
      let ok =
        List.for_all
          (fun (value, src, dst) ->
            route_value state ~value ~src ~dst ~ii ~max_hops)
          blocked
      in
      let result =
        if ok then Ok (State.commit_probe state ~target_ii ~weights)
        else Error "route allocator: no feasible detour"
      in
      State.abort_force state;
      result

let assign_with_routing state ~node ~cluster ~ii ~target_ii ~weights ~max_hops
    =
  Hca_obs.Obs.count "router.attempt" 1;
  Hca_obs.Obs.span "router.route" (fun () ->
      assign_routed state ~node ~cluster ~ii ~target_ii ~weights ~max_hops)

