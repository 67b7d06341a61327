let intra_succs g u =
  List.filter (fun (e : Ddg.edge) -> e.distance = 0) (Ddg.succs g u)

(* Kahn's algorithm with a min-heap on ids (a sorted module Set works and
   keeps the order deterministic). *)
let topological_order g =
  let n = Ddg.size g in
  let indeg = Array.make n 0 in
  for u = 0 to n - 1 do
    List.iter (fun (e : Ddg.edge) -> indeg.(e.dst) <- indeg.(e.dst) + 1)
      (intra_succs g u)
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
      (fun (e : Ddg.edge) ->
        indeg.(e.dst) <- indeg.(e.dst) - 1;
        if indeg.(e.dst) = 0 then ready := S.add e.dst !ready)
      (intra_succs g u)
  done;
  assert (!pos = n);
  order

let depth g =
  let order = topological_order g in
  let d = Array.make (Ddg.size g) 0 in
  Array.iter
    (fun u ->
      List.iter
        (fun (e : Ddg.edge) -> d.(e.dst) <- max d.(e.dst) (d.(u) + e.latency))
        (intra_succs g u))
    order;
  d

let height g =
  let order = topological_order g in
  let h = Array.make (Ddg.size g) 0 in
  for i = Array.length order - 1 downto 0 do
    let u = order.(i) in
    List.iter
      (fun (e : Ddg.edge) -> h.(u) <- max h.(u) (e.latency + h.(e.dst)))
      (intra_succs g u)
  done;
  h

let critical_path g =
  if Ddg.size g = 0 then 0
  else
    let d = depth g in
    Array.fold_left max 0 d

let slack g =
  let d = depth g and h = height g in
  let cp = Array.fold_left max 0 d in
  Array.mapi (fun i di -> cp - di - h.(i)) d

(* Tarjan, iterative to survive the 200+-node kernels without fear of the
   system stack (and arbitrary synthetic inputs). *)
let sccs g =
  let n = Ddg.size g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let out = Hca_util.Vec.create () in
  let succ_ids u = List.map (fun (e : Ddg.edge) -> e.dst) (Ddg.succs g u) in
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

let has_circuit g comp =
  match comp with
  | [] -> false
  | [ u ] ->
      List.exists (fun (e : Ddg.edge) -> e.dst = u) (Ddg.succs g u)
  | _ :: _ :: _ -> true

let nontrivial_sccs g =
  sccs g |> Array.to_list
  |> List.filter (has_circuit g)
  |> Array.of_list

