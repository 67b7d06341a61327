(* Reference twin of the graph walks [Problem] used to carry: its own
   iterative Tarjan and two depth-first longest-path walks, as first
   written.  [Problem] now runs on [Graph_algo.Make]; the property tests
   in [test_core] pin it to these walks, height for height and circuit
   partition for circuit partition. *)

open Hca_core

(* Iterative Tarjan over the full edge set (loop-carried included):
   only the circuits matter, so trivial components collapse to -1. *)
let compute_sccs ~n ~succs ~edges =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let comp = Array.make n (-1) in
  let next_comp = ref 0 in
  let succ_ids u = List.map (fun (e : Problem.edge) -> e.dst) succs.(u) in
  let strongconnect v =
    let work = ref [ (v, succ_ids v) ] in
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    while !work <> [] do
      match !work with
      | [] -> ()
      | (u, ws) :: rest -> (
          match ws with
          | [] ->
              work := rest;
              (match rest with
              | (p, _) :: _ -> lowlink.(p) <- min lowlink.(p) lowlink.(u)
              | [] -> ());
              if lowlink.(u) = index.(u) then begin
                let members = ref [] in
                let stop = ref false in
                while not !stop do
                  match !stack with
                  | [] -> stop := true
                  | w :: tl ->
                      stack := tl;
                      on_stack.(w) <- false;
                      members := w :: !members;
                      if w = u then stop := true
                done;
                let id = !next_comp in
                incr next_comp;
                List.iter (fun w -> comp.(w) <- id) !members
              end
          | w :: ws' ->
              work := (u, ws') :: rest;
              if index.(w) = -1 then begin
                index.(w) <- !next_index;
                lowlink.(w) <- !next_index;
                incr next_index;
                stack := w :: !stack;
                on_stack.(w) <- true;
                work := (w, succ_ids w) :: !work
              end
              else if on_stack.(w) then
                lowlink.(u) <- min lowlink.(u) index.(w))
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  (* Demote the trivial components: size one without a self loop. *)
  let size = Array.make !next_comp 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) comp;
  let has_self = Array.make n false in
  Array.iter
    (fun (e : Problem.edge) -> if e.src = e.dst then has_self.(e.src) <- true)
    edges;
  Array.mapi
    (fun v c -> if size.(c) > 1 || has_self.(v) then c else -1)
    comp

let scc_of p =
  let n = Problem.size p in
  compute_sccs ~n ~succs:(Array.init n (Problem.succs p)) ~edges:(Problem.edges p)

(* Longest path to a sink over distance-0 edges; the pseudo-node layer
   cannot create cycles (ports only source or only sink values). *)
let height p =
  let n = Problem.size p in
  let h = Array.make n 0 in
  let state = Array.make n 0 in
  let rec visit u =
    if state.(u) = 1 then
      (* Defensive: a malformed working set could smuggle a cycle in;
         treat the back edge as height 0 rather than looping. *)
      ()
    else if state.(u) = 0 then begin
      state.(u) <- 1;
      List.iter
        (fun (e : Problem.edge) ->
          if e.distance = 0 then begin
            visit e.dst;
            h.(u) <- max h.(u) (e.latency + h.(e.dst))
          end)
        (Problem.succs p u);
      state.(u) <- 2
    end
  in
  for u = 0 to n - 1 do
    visit u
  done;
  h

let depth p =
  let n = Problem.size p in
  let d = Array.make n 0 in
  let state = Array.make n 0 in
  let rec visit u =
    if state.(u) = 1 then ()
    else if state.(u) = 0 then begin
      state.(u) <- 1;
      List.iter
        (fun (e : Problem.edge) ->
          if e.distance = 0 then begin
            visit e.src;
            d.(u) <- max d.(u) (d.(e.src) + e.latency)
          end)
        (Problem.preds p u);
      state.(u) <- 2
    end
  in
  for u = 0 to n - 1 do
    visit u
  done;
  d
