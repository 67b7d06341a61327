(* Reference twin of [Encode]: the plain encoding as first written, with
   no symmetry-breaking clauses, so every relabelling of equal-capacity
   CNs stays a distinct model.  Kept verbatim so the property tests in
   [test_exact] can pin the symmetry-broken encoding to it verdict for
   verdict. *)

open Hca_machine
open Hca_exact
open Hca_core

type instance = {
  n : int;
  cns : int;
  max_in : int;
  demand : Resource.t array;  (* per node *)
  capacity : Resource.t array;  (* per CN *)
  pairs : (int * int) list;  (* distinct (producer, consumer) dep pairs *)
  producers : int list;  (* nodes with at least one consumer, ascending *)
}

let of_problem problem =
  let pg = Problem.pg problem in
  Array.iter
    (fun (nd : Problem.node) ->
      if nd.pinned <> None then
        invalid_arg "Encode.of_problem: instance must be flat (no ports)")
    (Problem.nodes problem);
  let n = Problem.size problem in
  let demand = Array.map (fun (nd : Problem.node) -> nd.demand) (Problem.nodes problem) in
  let seen = Hashtbl.create 64 in
  let pairs = ref [] in
  Array.iter
    (fun (e : Problem.edge) ->
      if e.src <> e.dst && not (Hashtbl.mem seen (e.src, e.dst)) then begin
        Hashtbl.replace seen (e.src, e.dst) ();
        pairs := (e.src, e.dst) :: !pairs
      end)
    (Problem.edges problem);
  let producers =
    List.sort_uniq compare (List.map fst !pairs)
  in
  {
    n;
    cns = List.length (Pattern_graph.regular_nodes pg);
    max_in = Pattern_graph.max_in pg;
    demand;
    capacity =
      Array.of_list
        (List.map
           (fun (nd : Pattern_graph.node) -> nd.capacity)
           (Pattern_graph.regular_nodes pg));
    pairs = !pairs;
    producers;
  }

let size inst = inst.n

let cns inst = inst.cns

type encoded = {
  sat : Sat.t;
  assign_var : int array array;
}

let is_alu inst node = inst.demand.(node).Resource.alus > 0

(* Sinz sequential-counter encoding of [sum lits <= k]. *)
let at_most sat lits k =
  let lits = Array.of_list lits in
  let m = Array.length lits in
  if k < 0 then Sat.add_clause sat []
  else if k = 0 then Array.iter (fun l -> Sat.add_clause sat [ -l ]) lits
  else if m > k then begin
    (* s.(i).(j): at least j+1 of lits.(0..i) are true. *)
    let s = Array.init (m - 1) (fun _ -> Array.init k (fun _ -> Sat.new_var sat)) in
    Sat.add_clause sat [ -lits.(0); s.(0).(0) ];
    for j = 1 to k - 1 do
      Sat.add_clause sat [ -s.(0).(j) ]
    done;
    for i = 1 to m - 2 do
      Sat.add_clause sat [ -lits.(i); s.(i).(0) ];
      Sat.add_clause sat [ -s.(i - 1).(0); s.(i).(0) ];
      for j = 1 to k - 1 do
        Sat.add_clause sat [ -lits.(i); -s.(i - 1).(j - 1); s.(i).(j) ];
        Sat.add_clause sat [ -s.(i - 1).(j); s.(i).(j) ]
      done;
      Sat.add_clause sat [ -lits.(i); -s.(i - 1).(k - 1) ]
    done;
    if m >= 2 then Sat.add_clause sat [ -lits.(m - 1); -s.(m - 2).(k - 1) ]
  end

let counter sat lits ~width =
  let lits = Array.of_list lits in
  let m = Array.length lits in
  let w = min m width in
  if w <= 0 then [||]
  else begin
    (* s.(i).(j): at least j+1 of lits.(0..i) are true — one-directional
       (count => counter var), triangular allocation: row i only needs
       columns up to min (i+1) w. *)
    let s =
      Array.init m (fun i -> Array.init (min (i + 1) w) (fun _ -> Sat.new_var sat))
    in
    Sat.add_clause sat [ -lits.(0); s.(0).(0) ];
    for i = 1 to m - 1 do
      Sat.add_clause sat [ -lits.(i); s.(i).(0) ];
      Sat.add_clause sat [ -s.(i - 1).(0); s.(i).(0) ];
      for j = 1 to Array.length s.(i) - 1 do
        Sat.add_clause sat [ -lits.(i); -s.(i - 1).(j - 1); s.(i).(j) ];
        if j < Array.length s.(i - 1) then
          Sat.add_clause sat [ -s.(i - 1).(j); s.(i).(j) ]
      done
    done;
    s.(m - 1)
  end

(* Adds x(n,c) with exactly-one rows and the r(s,c) receive indicators —
   everything about the instance that does not depend on the bound k. *)
let structure sat inst =
  let x =
    Array.init inst.n (fun _ -> Array.init inst.cns (fun _ -> Sat.new_var sat))
  in
  (* Exactly one CN per node. *)
  for nd = 0 to inst.n - 1 do
    Sat.add_clause sat (Array.to_list x.(nd));
    for a = 0 to inst.cns - 1 do
      for b = a + 1 to inst.cns - 1 do
        Sat.add_clause sat [ -x.(nd).(a); -x.(nd).(b) ]
      done
    done
  done;
  (* Receive indicators: r.(s).(c) is forced whenever a consumer of
     producer s sits on c while s itself does not. *)
  let recv = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace recv s (Array.init inst.cns (fun _ -> Sat.new_var sat)))
    inst.producers;
  List.iter
    (fun (s, m) ->
      let r = Hashtbl.find recv s in
      for c = 0 to inst.cns - 1 do
        Sat.add_clause sat [ -x.(m).(c); x.(s).(c); r.(c) ]
      done)
    inst.pairs;
  (x, recv)

(* The strict-mode structural wire constraints.  The MUX fan-in bound is
   k-independent; the single-out-wire payload groups (count <= k) are
   returned for the caller to bound — directly or through a ladder. *)
let strict_structure sat inst x =
  let e =
    Array.init inst.cns (fun _ -> Array.init inst.cns (fun _ -> Sat.new_var sat))
  in
  List.iter
    (fun (s, m) ->
      for a = 0 to inst.cns - 1 do
        for b = 0 to inst.cns - 1 do
          if a <> b then
            Sat.add_clause sat [ -x.(s).(a); -x.(m).(b); e.(a).(b) ]
        done
      done)
    inst.pairs;
  for b = 0 to inst.cns - 1 do
    let ins = ref [] in
    for a = inst.cns - 1 downto 0 do
      if a <> b then ins := e.(a).(b) :: !ins
    done;
    at_most sat !ins inst.max_in
  done;
  (* Single-out-wire payload: distinct values leaving a CN, <= k
     (each flat CN owns one broadcastable outgoing wire). *)
  let w = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace w s (Array.init inst.cns (fun _ -> Sat.new_var sat)))
    inst.producers;
  List.iter
    (fun (s, m) ->
      let ws = Hashtbl.find w s in
      for c = 0 to inst.cns - 1 do
        Sat.add_clause sat [ -x.(s).(c); x.(m).(c); ws.(c) ]
      done)
    inst.pairs;
  List.map
    (fun c -> List.map (fun s -> (Hashtbl.find w s).(c)) inst.producers)
    (List.init inst.cns (fun c -> c))

(* Per-CN windows: the cluster_mii <= k terms, group by group.  Each
   group is a literal set whose count must stay <= mult*k; [bound] is
   how the caller enforces that (direct Sinz clauses for a fixed k,
   counter-ladder assumptions for the incremental path).  A zero
   multiplier means the class has no capacity at all: its literals are
   forced false outright, identically at every k. *)
let per_cn_groups sat inst (x, recv) ~bound =
  for c = 0 to inst.cns - 1 do
    let cap = inst.capacity.(c) in
    let issue = Resource.issue_slots cap in
    let all = ref [] and alus = ref [] and ags = ref [] in
    for nd = inst.n - 1 downto 0 do
      all := x.(nd).(c) :: !all;
      if is_alu inst nd then alus := x.(nd).(c) :: !alus
      else ags := x.(nd).(c) :: !ags
    done;
    let recvs = List.map (fun s -> (Hashtbl.find recv s).(c)) inst.producers in
    let force_false lits = List.iter (fun l -> Sat.add_clause sat [ -l ]) lits in
    (* total issue window (Resource.fits issue term) *)
    if issue = 0 then force_false !all else bound !all issue;
    (* AG class window *)
    if cap.Resource.ags = 0 then force_false !ags
    else bound !ags cap.Resource.ags;
    (* ALU ops + receive primitives on the ALU issue slot *)
    if cap.Resource.alus = 0 then force_false !alus
    else bound (!alus @ recvs) cap.Resource.alus;
    (* incoming-wire serialisation: ceil (recv / max_in) <= k *)
    if inst.max_in = 0 then force_false recvs else bound recvs inst.max_in
  done

let encode ?(strict = false) inst ~k =
  let sat = Sat.create () in
  let x, recv = structure sat inst in
  per_cn_groups sat inst (x, recv) ~bound:(fun lits mult ->
      at_most sat lits (mult * k));
  if strict then
    List.iter
      (fun ws -> at_most sat ws k)
      (strict_structure sat inst x);
  { sat; assign_var = x }

type incremental = {
  enc : encoded;
  max_k : int;
  bounds : (int array * int) list;
}

let make ?(strict = false) inst ~max_k =
  if max_k < 1 then invalid_arg "Encode.make: max_k must be >= 1";
  let sat = Sat.create () in
  let x, recv = structure sat inst in
  let bounds = ref [] in
  let bound lits mult =
    (* Ladder wide enough for the loosest probe: at bound mult*max_k the
       assumption literal is out.(mult*max_k), hence width max_k*mult+1.
       A group smaller than its tightest bound never constrains and gets
       no ladder at all. *)
    let out = counter sat lits ~width:((mult * max_k) + 1) in
    if Array.length out > 0 then bounds := (out, mult) :: !bounds
  in
  per_cn_groups sat inst (x, recv) ~bound;
  if strict then
    List.iter (fun ws -> bound ws 1) (strict_structure sat inst x);
  { enc = { sat; assign_var = x }; max_k; bounds = List.rev !bounds }

let assumptions inc ~k =
  if k < 1 || k > inc.max_k then
    invalid_arg
      (Printf.sprintf "Encode.assumptions: k=%d outside [1, %d]" k inc.max_k);
  List.filter_map
    (fun (out, mult) ->
      let b = mult * k in
      if b < Array.length out then Some (-out.(b)) else None)
    inc.bounds

let decode inst { sat; assign_var } =
  Array.init inst.n (fun nd ->
      let c = ref (-1) in
      for i = inst.cns - 1 downto 0 do
        if Sat.value sat assign_var.(nd).(i) then c := i
      done;
      !c)

let receives_on inst assignment c =
  List.length
    (List.filter
       (fun s ->
         assignment.(s) <> c
         && List.exists
              (fun (s', m) -> s' = s && assignment.(m) = c)
              inst.pairs)
       inst.producers)

let cluster_mii_of_assignment inst assignment =
  let mii = ref 1 in
  for c = 0 to inst.cns - 1 do
    let demand = ref Resource.zero in
    Array.iteri
      (fun nd cn -> if cn = c then demand := Resource.add !demand inst.demand.(nd))
      assignment;
    let receives = receives_on inst assignment c in
    mii :=
      max !mii
        (Cost.cluster_mii ~demand:!demand ~capacity:inst.capacity.(c) ~receives
           ~max_in:inst.max_in)
  done;
  !mii

let copies_of_assignment inst assignment =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (s, m) ->
      if assignment.(s) <> assignment.(m) then
        Hashtbl.replace seen (s, assignment.(m)) ())
    inst.pairs;
  Hashtbl.length seen
