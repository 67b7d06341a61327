open Hca_ddg

(* Compact arc storage: the potential matrix of a PG is sparse (a node
   only reaches its level neighbours and ports), so instead of an
   [n * n] matrix the flow numbers the potential arcs 0..n_arcs-1 in
   ascending [(src, dst)] order and keeps every mutable per-arc
   structure at that compact index.  [arc_of] maps a flat
   [src * n + dst] to its compact id (-1 when not potential), so the
   hot queries are one load away from the dense arrays; clones copy
   [n_arcs] slots instead of [n * n].  The aggregate counters mirror
   the arc state so the per-move cost queries ([copy_count],
   [in_pressure], [can_add]...) are O(1) reads; every mutation keeps
   them in sync.

   The speculation trail is an arena: a preallocated int array of
   compact arc ids reused across probes, so an apply/undo round trip
   allocates nothing once the arena is warm. *)
type t = {
  pg : Pattern_graph.t;
  n : int;
  max_in_ports : int;
  arc_of : int array;  (* flat [src * n + dst] -> compact arc id or -1 *)
  arc_src : int array;  (* compact arc id -> endpoints *)
  arc_dst : int array;
  in_arcs : int array array;  (* per dst: compact ids, src ascending *)
  out_arcs : int array array;  (* per src: compact ids, dst ascending *)
  values : Instr.id list array;  (* per compact arc, reverse order *)
  reserved : Bytes.t;  (* per compact arc: slot pre-committed *)
  inport : Bytes.t;  (* cached per-node In_port flag *)
  max_in_of : int array;  (* cached per-dst in-neighbour budget *)
  mutable total : int;  (* value-hops over all arcs *)
  in_pres : int array;  (* values entering each node *)
  in_deg : int array;  (* distinct real in-neighbours *)
  out_deg : int array;  (* distinct real out-neighbours *)
  committed_in : int array;  (* real or reserved in-arcs *)
  mutable used_ports : int;  (* in-ports with at least one out-arc *)
  (* Speculation trail: while a mark is outstanding, [add_copy] logs
     each mutated compact arc id so [undo_to_mark] can reverse the
     mutations exactly (LIFO: the value lists are stacks). *)
  mutable trail : int array;
  mutable trail_len : int;
  mutable marks : int;
}

type mark = int

let no_mark = -1

let create ?(max_in_ports = max_int) pg =
  let n = Pattern_graph.size pg in
  let inport = Bytes.make n '\000' in
  let max_in_of = Array.make n 0 in
  Array.iter
    (fun (nd : Pattern_graph.node) ->
      match nd.kind with
      | Pattern_graph.In_port _ -> Bytes.set inport nd.id '\001'
      | Pattern_graph.Out_port _ -> max_in_of.(nd.id) <- 1
      | Pattern_graph.Regular -> max_in_of.(nd.id) <- Pattern_graph.max_in pg)
    (Pattern_graph.nodes pg);
  let arc_of = Array.make (n * n) (-1) in
  let srcs = ref [] and dsts = ref [] and n_arcs = ref 0 in
  (* Compact ids ascend with the flat index, so iterating arcs
     0..n_arcs-1 is the (src, dst)-lexicographic matrix walk the
     equality and [arcs] orders rely on. *)
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if Pattern_graph.is_potential pg ~src ~dst then begin
        arc_of.((src * n) + dst) <- !n_arcs;
        srcs := src :: !srcs;
        dsts := dst :: !dsts;
        incr n_arcs
      end
    done
  done;
  let arc_src = Array.of_list (List.rev !srcs) in
  let arc_dst = Array.of_list (List.rev !dsts) in
  let collect_arcs by =
    Array.init n (fun id ->
        let acc = ref [] in
        for a = !n_arcs - 1 downto 0 do
          if by.(a) = id then acc := a :: !acc
        done;
        Array.of_list !acc)
  in
  {
    pg;
    n;
    max_in_ports;
    arc_of;
    arc_src;
    arc_dst;
    in_arcs = collect_arcs arc_dst;
    out_arcs = collect_arcs arc_src;
    values = Array.make (max 1 !n_arcs) [];
    reserved = Bytes.make (max 1 !n_arcs) '\000';
    inport;
    max_in_of;
    total = 0;
    in_pres = Array.make n 0;
    in_deg = Array.make n 0;
    out_deg = Array.make n 0;
    committed_in = Array.make n 0;
    used_ports = 0;
    trail = [||];
    trail_len = 0;
    marks = 0;
  }

let pg t = t.pg

(* Copy the mutable arc state as it stands — even mid-speculation: the
   value lists are immutable (sharing their tails is safe when the
   original later pops them on [undo_to_mark]), so the copy captures
   the speculatively mutated flow with a fresh, markless trail. *)
let snapshot t =
  {
    t with
    (* The value lists are immutable, so the arc array clones with a
       single [Array.copy] and the lists stay shared. *)
    values = Array.copy t.values;
    in_pres = Array.copy t.in_pres;
    in_deg = Array.copy t.in_deg;
    out_deg = Array.copy t.out_deg;
    committed_in = Array.copy t.committed_in;
    trail = [||];
    trail_len = 0;
    marks = 0;
  }
  (* [arc_of]/[arc_src]/[arc_dst]/[in_arcs]/[out_arcs]/[reserved]/
     [inport]/[max_in_of] are never mutated after setup, so sharing
     them is safe. *)

(* [snapshot] into a flow of the same search: the tables it would share
   must be the very same, and the mutable slots are blit in place. *)
let snapshot_into ~src ~dst =
  if src.arc_of != dst.arc_of || src.reserved != dst.reserved then
    invalid_arg "Copy_flow.snapshot_into: flows of different origins";
  let blit a b = Array.blit a 0 b 0 (Array.length a) in
  blit src.values dst.values;
  blit src.in_pres dst.in_pres;
  blit src.in_deg dst.in_deg;
  blit src.out_deg dst.out_deg;
  blit src.committed_in dst.committed_in;
  dst.total <- src.total;
  dst.used_ports <- src.used_ports;
  dst.trail_len <- 0;
  dst.marks <- 0

let arc_id t ~src ~dst =
  if src >= 0 && src < t.n && dst >= 0 && dst < t.n then
    Array.unsafe_get t.arc_of ((src * t.n) + dst)
  else -1

let used_in_ports_count t = t.used_ports

let real_in_count t id = t.in_deg.(id)

let is_in_port t id = Bytes.unsafe_get t.inport id <> '\000'

let reserve_neighbor t ~src ~dst =
  match arc_id t ~src ~dst with
  | -1 -> invalid_arg "Copy_flow.reserve_neighbor: arc not potential"
  | a ->
      (* In-degree with backbone reservations folded in: a reserved arc
         holds its slot whether or not a value flows yet. *)
      if Bytes.get t.reserved a = '\000' && t.values.(a) = [] then
        t.committed_in.(dst) <- t.committed_in.(dst) + 1;
      Bytes.set t.reserved a '\001'

(* [can_add] on an already-resolved compact arc id. *)
let can_add_arc t a ~src ~dst =
  t.values.(a) <> []
  || Bytes.unsafe_get t.reserved a <> '\000'
  || t.committed_in.(dst) < t.max_in_of.(dst)
     && ((not (is_in_port t src))
        || t.out_deg.(src) > 0
        || t.used_ports < t.max_in_ports)

let can_add t ~src ~dst =
  match arc_id t ~src ~dst with
  | -1 -> false
  | a -> can_add_arc t a ~src ~dst

(* Index-based view of a node's potential out-arcs, for the Route
   Allocator's BFS: the successor scan must neither allocate a list per
   expansion (the [Pattern_graph.potential_succs] way) nor re-resolve
   the [(src, dst)] pair it already holds compactly. *)
let out_arc_count t src = Array.length t.out_arcs.(src)

let out_arc_dst t src k = t.arc_dst.(t.out_arcs.(src).(k))

let can_add_out t src k =
  let a = t.out_arcs.(src).(k) in
  can_add_arc t a ~src ~dst:t.arc_dst.(a)

let trail_push t a =
  let cap = Array.length t.trail in
  if t.trail_len = cap then begin
    let grown = Array.make (max 64 (2 * cap)) 0 in
    Array.blit t.trail 0 grown 0 t.trail_len;
    t.trail <- grown
  end;
  t.trail.(t.trail_len) <- a;
  t.trail_len <- t.trail_len + 1

let add_copy t ~src ~dst value =
  let a = arc_id t ~src ~dst in
  if a < 0 || not (can_add_arc t a ~src ~dst) then
    invalid_arg
      (Printf.sprintf "Copy_flow.add_copy: arc %d->%d not allowed" src dst);
  if not (List.mem value t.values.(a)) then begin
    if t.values.(a) = [] then begin
      t.in_deg.(dst) <- t.in_deg.(dst) + 1;
      t.out_deg.(src) <- t.out_deg.(src) + 1;
      if is_in_port t src && t.out_deg.(src) = 1 then
        t.used_ports <- t.used_ports + 1;
      if Bytes.unsafe_get t.reserved a = '\000' then
        t.committed_in.(dst) <- t.committed_in.(dst) + 1
    end;
    t.values.(a) <- value :: t.values.(a);
    t.total <- t.total + 1;
    t.in_pres.(dst) <- t.in_pres.(dst) + 1;
    if t.marks > 0 then trail_push t a
  end

let push_mark t =
  t.marks <- t.marks + 1;
  t.trail_len

(* Reverse of the mutating branch of [add_copy]: pop the value, and
   when the arc empties again reverse the arc-level counters under the
   same conditions the add tested. *)
let undo_event t a =
  let src = t.arc_src.(a) and dst = t.arc_dst.(a) in
  match t.values.(a) with
  | [] -> assert false
  | _ :: tl ->
      t.values.(a) <- tl;
      t.total <- t.total - 1;
      t.in_pres.(dst) <- t.in_pres.(dst) - 1;
      if tl = [] then begin
        t.in_deg.(dst) <- t.in_deg.(dst) - 1;
        t.out_deg.(src) <- t.out_deg.(src) - 1;
        if is_in_port t src && t.out_deg.(src) = 0 then
          t.used_ports <- t.used_ports - 1;
        if Bytes.unsafe_get t.reserved a = '\000' then
          t.committed_in.(dst) <- t.committed_in.(dst) - 1
      end

let undo_to_mark t mark =
  if t.marks <= 0 then invalid_arg "Copy_flow.undo_to_mark: no mark in flight";
  while t.trail_len > mark do
    t.trail_len <- t.trail_len - 1;
    undo_event t t.trail.(t.trail_len)
  done;
  t.marks <- t.marks - 1

(* Keep the mutations since the mark: an outer mark still owns the
   trail entries (undoing it reverses them too); with no mark left the
   trail is empty, as everywhere outside speculation. *)
let drop_mark t (_ : mark) =
  if t.marks <= 0 then invalid_arg "Copy_flow.drop_mark: no mark in flight";
  t.marks <- t.marks - 1;
  if t.marks = 0 then t.trail_len <- 0

let equal a b =
  a.n = b.n
  && a.total = b.total
  && a.used_ports = b.used_ports
  &&
  let ok = ref true in
  (try
     for i = 0 to Array.length a.values - 1 do
       if a.values.(i) <> b.values.(i) then begin
         ok := false;
         raise Exit
       end
     done
   with Exit -> ());
  !ok

let copy_count t = t.total

let in_pressure t id = t.in_pres.(id)

let out_pressure t id =
  let module S = Set.Make (Int) in
  let distinct = ref S.empty in
  Array.iter
    (fun a -> List.iter (fun v -> distinct := S.add v !distinct) t.values.(a))
    t.out_arcs.(id);
  S.cardinal !distinct

(* The frozen view: the real arcs alone, in ascending [(src, dst)]
   order, with their values in insertion order packed into one array
   (arc [a] holds [vals.(first.(a))] to [vals.(first.(a + 1) - 1)]).
   Nothing else of the flow is kept: in-pressures and the total are
   sums over the arcs. *)
module Frozen = struct
  type t = {
    src : int array;
    dst : int array;
    first : int array;  (* one slot more than arcs *)
    vals : Instr.id array;
  }

  let of_arcs arcs =
    let arr f = Array.of_list (List.map f arcs) in
    let first = Array.make (List.length arcs + 1) 0 in
    List.iteri (fun a (_, _, vs) -> first.(a + 1) <- first.(a) + List.length vs) arcs;
    {
      src = arr (fun (s, _, _) -> s);
      dst = arr (fun (_, d, _) -> d);
      first;
      vals = Array.of_list (List.concat_map (fun (_, _, vs) -> vs) arcs);
    }

  let arc_values f a =
    let acc = ref [] in
    for i = f.first.(a + 1) - 1 downto f.first.(a) do
      acc := f.vals.(i) :: !acc
    done;
    !acc

  let copies f ~src ~dst =
    let rec find a =
      if a >= Array.length f.src || f.src.(a) > src then []
      else if f.src.(a) = src && f.dst.(a) = dst then arc_values f a
      else find (a + 1)
    in
    find 0

  (* Both scans walk the arcs in [(src, dst)] order, so neighbours come
     out ascending. *)
  let neighbors ~by ~other id =
    let acc = ref [] in
    for a = Array.length by - 1 downto 0 do
      if by.(a) = id then acc := other.(a) :: !acc
    done;
    !acc

  let real_out_neighbors f id = neighbors ~by:f.src ~other:f.dst id

  let real_in_neighbors f id = neighbors ~by:f.dst ~other:f.src id

  let arcs f =
    List.init (Array.length f.src) (fun a -> (f.src.(a), f.dst.(a), arc_values f a))

  let copy_count f = Array.length f.vals

  let in_pressure f id =
    let n = ref 0 in
    Array.iteri
      (fun a d -> if d = id then n := !n + f.first.(a + 1) - f.first.(a))
      f.dst;
    !n

  let remove_copy f ~src ~dst value =
    if not (List.mem value (copies f ~src ~dst)) then
      invalid_arg "Copy_flow.Frozen.remove_copy: value not routed on this arc";
    of_arcs
      (List.filter_map
         (fun (s, d, vs) ->
           let vs = if s = src && d = dst then List.filter (( <> ) value) vs else vs in
           if vs = [] then None else Some (s, d, vs))
         (arcs f))
end

(* Compact arc ids ascend with [(src, dst)], so one pass over them
   yields the frozen order. *)
let freeze t =
  let real = ref 0 in
  Array.iter (fun vs -> if vs <> [] then incr real) t.values;
  let src = Array.make !real 0 and dst = Array.make !real 0 in
  let first = Array.make (!real + 1) 0 and vals = Array.make t.total 0 in
  let k = ref 0 in
  Array.iteri
    (fun a vs ->
      if vs <> [] then begin
        let len = List.length vs in
        src.(!k) <- t.arc_src.(a);
        dst.(!k) <- t.arc_dst.(a);
        first.(!k + 1) <- first.(!k) + len;
        (* [vs] is newest first *)
        List.iteri (fun i v -> vals.(first.(!k + 1) - 1 - i) <- v) vs;
        incr k
      end)
    t.values;
  { Frozen.src; dst; first; vals }
