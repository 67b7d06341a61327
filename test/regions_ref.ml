(* Reference twin of [Regions]: the region growing as first written,
   re-summing every candidate's affinity to every member through the
   tuple-keyed table on each step.  Kept verbatim so the property tests
   in [test_core] can pin the gain-counter implementation to it region
   for region. *)

open Hca_core
open Hca_ddg

(* Shared region-growing engine: [n] nodes, [free] membership mask,
   pairwise affinities, criticality used to pick seeds. *)
let grow_regions ?(min_affinity = 2) ~n ~free ~affinity ~criticality ~capacity () =
  let aff a b =
    Option.value ~default:0 (Hashtbl.find_opt affinity (min a b, max a b))
  in
  let neighbors = Array.make n [] in
  Hashtbl.iter
    (fun (a, b) _ ->
      neighbors.(a) <- b :: neighbors.(a);
      neighbors.(b) <- a :: neighbors.(b))
    affinity;
  let region = Array.make n (-1) in
  let order =
    List.init n (fun i -> i)
    |> List.filter (fun i -> free.(i))
    |> List.sort (fun a b ->
           compare (-criticality.(a), a) (-criticality.(b), b))
  in
  let next_region = ref 0 in
  let grow seed =
    let r = !next_region in
    incr next_region;
    region.(seed) <- r;
    let members = ref [ seed ] in
    let size = ref 1 in
    let continue = ref true in
    while !continue && !size < capacity do
      (* Best unassigned node by affinity to the region; the frontier is
         small (regions are cluster-sized), so a scan over the members'
         neighbourhoods is cheap. *)
      let best = ref (-1) and best_aff = ref 0 in
      List.iter
        (fun m ->
          List.iter
            (fun cand ->
              if region.(cand) = -1 && free.(cand) then begin
                let a =
                  List.fold_left (fun acc m' -> acc + aff cand m') 0 !members
                in
                if a > !best_aff || (a = !best_aff && !best >= 0 && cand < !best)
                then begin
                  best := cand;
                  best_aff := a
                end
              end)
            neighbors.(m))
        !members;
      if !best >= 0 && !best_aff >= min_affinity then begin
        region.(!best) <- r;
        members := !best :: !members;
        incr size
      end
      else continue := false
    done
  in
  List.iter (fun seed -> if region.(seed) = -1 then grow seed) order;
  region

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
    ~capacity ()

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
  let region =
    grow_regions ~n ~free ~affinity ~criticality:(Graph_algo.height ddg)
      ~capacity ()
  in
  fun g -> if g >= 0 && g < n then region.(g) else -1
