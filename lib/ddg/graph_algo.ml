module type GRAPH = sig
  type t
  type edge
  val size : t -> int
  val succs : t -> int -> edge list
  val dst : edge -> int
  val latency : edge -> int
  val distance : edge -> int
end

module type S = sig
  type graph
  val topological_order : graph -> int array
  val depth : graph -> int array
  val height : graph -> int array
  val critical_path : graph -> int
  val nontrivial_sccs : graph -> int list array
end

module Make (G : GRAPH) = struct
  let intra_succs g u = List.filter (fun e -> G.distance e = 0) (G.succs g u)

  (* Kahn's algorithm with a min-heap on ids (a sorted module Set works
     and keeps the order deterministic). *)
  let topological_order g =
    let n = G.size g in
    let indeg = Array.make n 0 in
    for u = 0 to n - 1 do
      List.iter (fun e -> indeg.(G.dst e) <- indeg.(G.dst e) + 1) (intra_succs g u)
    done;
    let module S = Set.Make (Int) in
    let ready = ref S.empty in
    for u = 0 to n - 1 do
      if indeg.(u) = 0 then ready := S.add u !ready
    done;
    let order = Array.make n (-1) in
    let pos = ref 0 in
    while not (S.is_empty !ready) do
      let u = S.min_elt !ready in
      ready := S.remove u !ready;
      order.(!pos) <- u;
      incr pos;
      List.iter
        (fun e ->
          let v = G.dst e in
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then ready := S.add v !ready)
        (intra_succs g u)
    done;
    assert (!pos = n);
    order

  let depth g =
    let d = Array.make (G.size g) 0 in
    Array.iter
      (fun u ->
        List.iter
          (fun e -> d.(G.dst e) <- max d.(G.dst e) (d.(u) + G.latency e))
          (intra_succs g u))
      (topological_order g);
    d

  (* Longest paths are unique, so the height needs no particular order:
     one memoised depth-first pass (the SEE asks for it on every
     subproblem it solves). *)
  let height g =
    let h = Array.make (G.size g) 0 in
    let state = Array.make (G.size g) 0 (* unseen, on the path, done *) in
    let rec visit u =
      if state.(u) = 0 then begin
        state.(u) <- 1;
        List.iter
          (fun e ->
            if G.distance e = 0 then begin
              visit (G.dst e);
              h.(u) <- max h.(u) (G.latency e + h.(G.dst e))
            end)
          (G.succs g u);
        state.(u) <- 2
      end
      else assert (state.(u) = 2) (* else an intra-iteration cycle *)
    in
    for u = 0 to G.size g - 1 do
      visit u
    done;
    h

  let critical_path g = Array.fold_left max 0 (height g)

  (* Tarjan, iterative to survive the 200+-node kernels without fear of
     the system stack (and arbitrary synthetic inputs). *)
  let sccs g =
    let n = G.size g in
    let index = Array.make n (-1) in
    let lowlink = Array.make n 0 in
    let on_stack = Array.make n false in
    let stack = ref [] in
    let next_index = ref 0 in
    let out = Hca_util.Vec.create () in
    let succ_ids u = List.map G.dst (G.succs g u) in
    let strongconnect v =
      (* Explicit work stack of (node, remaining successors). *)
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
                  let comp = ref [] in
                  let stop = ref false in
                  while not !stop do
                    match !stack with
                    | [] -> stop := true
                    | w :: tl ->
                        stack := tl;
                        on_stack.(w) <- false;
                        comp := w :: !comp;
                        if w = u then stop := true
                  done;
                  ignore (Hca_util.Vec.push out !comp)
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
    Hca_util.Vec.to_array out

  let has_circuit g = function
    | [] -> false
    | [ u ] -> List.exists (fun e -> G.dst e = u) (G.succs g u)
    | _ :: _ :: _ -> true

  let nontrivial_sccs g =
    sccs g |> Array.to_list |> List.filter (has_circuit g) |> Array.of_list
end

include Make (struct
  type t = Ddg.t
  type edge = Ddg.edge
  let size = Ddg.size
  let succs = Ddg.succs
  let dst (e : edge) = e.dst
  let latency (e : edge) = e.latency
  let distance (e : edge) = e.distance
end)
