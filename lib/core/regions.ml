open Hca_ddg

(* A region stops growing once no candidate's summed affinity to its
   members reaches this: a single broadcast edge (weight 1) never pulls
   a node in on its own. *)
let min_affinity = 2

(* Shared region-growing engine: [n] nodes, [free] membership mask,
   pairwise affinities keyed [(a, b)] with [a < b], both free, every
   weight at least 1; criticality picks the seeds.

   Each region starts from the most critical unassigned seed and
   repeatedly takes the unassigned node with the largest summed
   affinity to its members, ties to the smaller id, until that sum
   falls below [min_affinity] or the region holds [capacity] nodes.
   The sums are kept as per-candidate gain counters: a joining node
   adds its edge weights to its unassigned neighbours' gains, and the
   neighbours reached for the first time (gain still 0, since every
   weight is positive) enter the frontier.  A step is then one scan of
   the frontier, O(degree + frontier) array reads. *)
let grow_regions ~n ~free ~affinity ~criticality ~capacity =
  (* CSR adjacency: the neighbours of [a] are [nbr.(start.(a))] to
     [nbr.(start.(a + 1) - 1)], with the pair's affinity in [wt]. *)
  let start = Array.make (n + 1) 0 in
  Hashtbl.iter
    (fun (a, b) _ ->
      start.(a + 1) <- start.(a + 1) + 1;
      start.(b + 1) <- start.(b + 1) + 1)
    affinity;
  for i = 1 to n do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let nbr = Array.make start.(n) 0 and wt = Array.make start.(n) 0 in
  let fill = Array.sub start 0 n in
  let link a b w =
    nbr.(fill.(a)) <- b;
    wt.(fill.(a)) <- w;
    fill.(a) <- fill.(a) + 1
  in
  Hashtbl.iter
    (fun (a, b) w ->
      link a b w;
      link b a w)
    affinity;
  let region = Array.make n (-1) in
  let gain = Array.make n 0 in
  let frontier = Array.make n 0 and len = ref 0 in
  let join r v =
    region.(v) <- r;
    for k = start.(v) to start.(v + 1) - 1 do
      let c = nbr.(k) in
      if region.(c) = -1 then begin
        if gain.(c) = 0 then begin
          frontier.(!len) <- c;
          incr len
        end;
        gain.(c) <- gain.(c) + wt.(k)
      end
    done
  in
  (* The best candidate, or -1 when none reaches [min_affinity]; drops
     the frontier entries that already joined. *)
  let pick () =
    let best = ref (-1) and best_gain = ref 0 and live = ref 0 in
    for i = 0 to !len - 1 do
      let c = frontier.(i) in
      if region.(c) = -1 then begin
        frontier.(!live) <- c;
        incr live;
        let g = gain.(c) in
        if g > !best_gain || (g = !best_gain && c < !best) then begin
          best := c;
          best_gain := g
        end
      end
    done;
    len := !live;
    if !best_gain >= min_affinity then !best else -1
  in
  let order =
    List.init n (fun i -> i)
    |> List.filter (fun i -> free.(i))
    |> List.sort (fun a b ->
           match Int.compare criticality.(b) criticality.(a) with
           | 0 -> Int.compare a b
           | c -> c)
  in
  let next_region = ref 0 in
  (* While every region stops on its gain, any capacity above the
     largest one grows the same regions; a region that stops full pins
     the capacity. *)
  let stable_from = ref (Some 1) in
  let grow seed =
    let r = !next_region in
    incr next_region;
    join r seed;
    let rec extend size =
      if size >= capacity then stable_from := None
      else
        match pick () with
        | -1 -> (
            match !stable_from with
            | Some c when c <= size -> stable_from := Some (size + 1)
            | _ -> ())
        | c ->
            join r c;
            extend (size + 1)
    in
    extend 1;
    for i = 0 to !len - 1 do
      gain.(frontier.(i)) <- 0
    done;
    len := 0
  in
  List.iter (fun seed -> if region.(seed) = -1 then grow seed) order;
  (region, !stable_from)

let is_out_port problem id =
  let nd = Problem.node problem id in
  nd.Problem.pinned <> None && Problem.succs problem id = []

let is_in_port problem id =
  let nd = Problem.node problem id in
  nd.Problem.pinned <> None && Problem.preds problem id = []

let partition problem ~capacity =
  if capacity < 1 then invalid_arg "Regions.partition: capacity must be >= 1";
  let n = Problem.size problem in
  let free = Array.make n false in
  Array.iter
    (fun (nd : Problem.node) -> free.(nd.Problem.id) <- nd.Problem.pinned = None)
    (Problem.nodes problem);
  let affinity = Hashtbl.create (4 * n) in
  let bump a b w =
    if a <> b && free.(a) && free.(b) then begin
      let key = (min a b, max a b) in
      Hashtbl.replace affinity key
        (w + Option.value ~default:0 (Hashtbl.find_opt affinity key))
    end
  in
  (* Broadcast producers (constants, shared inductions) link every
     consumer to every other; discounting their edges by fan-out keeps
     them from welding unrelated regions together. *)
  let fanout = Array.make n 0 in
  Array.iter
    (fun (e : Problem.edge) -> fanout.(e.src) <- fanout.(e.src) + 1)
    (Problem.edges problem);
  let edge_weight f = if f >= 6 then 1 else max 2 (8 / (1 + f)) in
  let scc = Problem.scc_of problem in
  Array.iter
    (fun (e : Problem.edge) ->
      (* Any edge inside a recurrence circuit: tearing it across
         clusters stretches the circuit by the copy latency and inflates
         MIIRec, so circuit members stick hard. *)
      let w =
        if
          e.Problem.distance > 0
          || (scc.(e.src) >= 0 && scc.(e.src) = scc.(e.dst))
        then 10
        else edge_weight fanout.(e.src)
      in
      bump e.src e.dst w)
    (Problem.edges problem);
  (* Co-location pressure through the ports. *)
  for id = 0 to n - 1 do
    if is_out_port problem id then begin
      let feeders =
        List.map (fun (e : Problem.edge) -> e.src) (Problem.preds problem id)
        |> List.sort_uniq compare
      in
      List.iter
        (fun a -> List.iter (fun b -> bump a b 6) feeders)
        feeders
    end
    else if is_in_port problem id then begin
      (* Consumers of the same delivered value share one copy slot. *)
      let by_value = Hashtbl.create 8 in
      List.iter
        (fun (e : Problem.edge) ->
          Hashtbl.replace by_value e.Problem.value
            (e.Problem.dst
            :: Option.value ~default:[] (Hashtbl.find_opt by_value e.Problem.value)))
        (Problem.succs problem id);
      Hashtbl.iter
        (fun _ consumers ->
          let consumers = List.sort_uniq compare consumers in
          List.iter
            (fun a -> List.iter (fun b -> bump a b 1) consumers)
            consumers)
        by_value
    end
  done;
  grow_regions ~n ~free ~affinity ~criticality:(Problem.height problem)
    ~capacity

let partition_ddg ddg ~members ~capacity =
  if capacity < 1 then
    invalid_arg "Regions.partition_ddg: capacity must be >= 1";
  let n = Ddg.size ddg in
  let free = Array.make n false in
  List.iter (fun g -> free.(g) <- true) members;
  let fanout = Array.make n 0 in
  Ddg.iter_edges (fun e -> fanout.(e.src) <- fanout.(e.src) + 1) ddg;
  let affinity = Hashtbl.create (4 * n) in
  Ddg.iter_edges
    (fun e ->
      if e.src <> e.dst && free.(e.src) && free.(e.dst) then begin
        let key = (min e.src e.dst, max e.src e.dst) in
        let w =
          if e.distance > 0 then 10
          else if fanout.(e.src) >= 6 then 1
          else max 2 (8 / (1 + fanout.(e.src)))
        in
        Hashtbl.replace affinity key
          (w + Option.value ~default:0 (Hashtbl.find_opt affinity key))
      end)
    ddg;
  let region, _ =
    grow_regions ~n ~free ~affinity ~criticality:(Graph_algo.height ddg)
      ~capacity
  in
  fun g -> if g >= 0 && g < n then region.(g) else -1
