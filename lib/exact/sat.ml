(* Incremental MiniSat-style CDCL on a flat data layout.

   Internal literal encoding: variable [v] (0-based) yields literals
   [2v] (positive) and [2v+1] (negative); the external API speaks
   DIMACS ints.

   Clause storage is one packed int arena.  A clause reference [cref]
   is the offset of its header inside the arena:

     arena.(cref)     info word: size lsl 14 | lbd lsl 2 | learnt | deleted
     arena.(cref + 1) birth probe epoch (forwarding pointer during GC)
     arena.(cref + 2 ...)  the literals; slots 0 and 1 are the watched pair

   Watch lists are stride-2 int vectors of (cref, blocker) pairs: the
   blocker is some other literal of the clause, checked before touching
   the arena at all — the common satisfied-clause case costs one array
   read.  Unit clauses are never stored: they become level-0 trail
   entries.  The propagate/analyze hot loop allocates nothing. *)

(* -------- unboxed int vectors -------- *)

module Iv = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let grow v need =
    let cap = max need (max 8 (2 * Array.length v.a)) in
    let a' = Array.make cap 0 in
    Array.blit v.a 0 a' 0 v.n;
    v.a <- a'

  let push v x =
    if v.n = Array.length v.a then grow v (v.n + 1);
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let push2 v x y =
    if v.n + 2 > Array.length v.a then grow v (v.n + 2);
    v.a.(v.n) <- x;
    v.a.(v.n + 1) <- y;
    v.n <- v.n + 2

  let clear v = v.n <- 0
end

type result = Sat | Unsat | Unknown

type t = {
  mutable nvars : int;
  (* clause arena *)
  mutable arena : int array;
  mutable arena_len : int;
  mutable problems : Iv.t;  (* crefs of input clauses, in add order *)
  mutable learnts : Iv.t;  (* crefs of live learnt clauses *)
  mutable watches : Iv.t array;  (* internal literal -> (cref, blocker)* *)
  (* assignment *)
  mutable assigns : int array;  (* -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array;  (* cref, or -1 for decisions/units *)
  mutable activity : float array;
  mutable polarity : bool array;  (* phase saving: last assigned value *)
  mutable heap : int array;  (* binary max-heap of variables by activity *)
  mutable heap_pos : int array;  (* var -> index in heap, -1 if absent *)
  mutable heap_size : int;
  mutable trail : int array;  (* internal literals, assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array;  (* trail size at each decision level *)
  mutable trail_lim_size : int;
  mutable qhead : int;
  mutable var_inc : float;
  mutable ok : bool;  (* false once the clause set is trivially unsat *)
  mutable has_model : bool;
  (* scratch *)
  mutable seen : bool array;  (* conflict analysis *)
  mutable lbd_mark : int array;  (* per-level stamp for LBD counting *)
  mutable lbd_epoch : int;
  (* clause-DB reduction policy *)
  mutable reduce_limit : int;
  (* statistics *)
  mutable probe : int;
  mutable n_conflicts : int;
  mutable n_props : int;
  mutable n_learnt_total : int;
  mutable n_deleted_total : int;
  mutable n_live_learnt : int;
  mutable n_reused : int;
}

let create ?(reduce_start = 2000) () =
  {
    nvars = 0;
    arena = Array.make 1024 0;
    arena_len = 0;
    problems = Iv.create ();
    learnts = Iv.create ();
    watches = Array.init 16 (fun _ -> Iv.create ());
    assigns = Array.make 8 (-1);
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    activity = Array.make 8 0.0;
    polarity = Array.make 8 false;
    heap = Array.make 8 0;
    heap_pos = Array.make 8 (-1);
    heap_size = 0;
    trail = Array.make 8 0;
    trail_size = 0;
    trail_lim = Array.make 8 0;
    trail_lim_size = 0;
    qhead = 0;
    var_inc = 1.0;
    ok = true;
    has_model = false;
    seen = Array.make 8 false;
    lbd_mark = Array.make 9 0;
    lbd_epoch = 0;
    reduce_limit = max 16 reduce_start;
    probe = 0;
    n_conflicts = 0;
    n_props = 0;
    n_learnt_total = 0;
    n_deleted_total = 0;
    n_live_learnt = 0;
    n_reused = 0;
  }

let nvars t = t.nvars

let conflicts t = t.n_conflicts


let propagations t = t.n_props

let learnt_total t = t.n_learnt_total

let deleted_total t = t.n_deleted_total

let reused_hits t = t.n_reused

let new_probe t = t.probe <- t.probe + 1

(* -------- literals -------- *)

let var_of_lit l = l lsr 1

let neg l = l lxor 1

let lit_sign l = l land 1 = 0 (* true = positive *)

let internal t ext =
  if ext = 0 || abs ext > t.nvars then
    invalid_arg (Printf.sprintf "Sat: literal %d out of range" ext);
  let v = abs ext - 1 in
  if ext > 0 then 2 * v else (2 * v) + 1

let external_ l =
  let v = (l lsr 1) + 1 in
  if l land 1 = 0 then v else -v

(* -------- clause header accessors -------- *)

let lbd_cap = 0xfff

let info_make ~size ~lbd ~learnt =
  (size lsl 14) lor (min lbd lbd_cap lsl 2) lor (if learnt then 2 else 0)

let c_size arena cref = arena.(cref) lsr 14

let c_lbd arena cref = (arena.(cref) lsr 2) land lbd_cap

let c_learnt arena cref = arena.(cref) land 2 <> 0

let c_deleted arena cref = arena.(cref) land 1 <> 0

let c_delete arena cref = arena.(cref) <- arena.(cref) lor 1

(* -------- dynamic arrays -------- *)

let grow_to t n =
  let old = Array.length t.assigns in
  if n > old then begin
    let cap = max n (2 * old) in
    let extend a fill = Array.append a (Array.make (cap - Array.length a) fill) in
    t.assigns <- extend t.assigns (-1);
    t.level <- extend t.level 0;
    t.reason <- extend t.reason (-1);
    t.activity <- extend t.activity 0.0;
    t.polarity <- extend t.polarity false;
    t.heap <- extend t.heap 0;
    t.heap_pos <- extend t.heap_pos (-1);
    t.trail <- extend t.trail 0;
    t.trail_lim <- extend t.trail_lim 0;
    t.seen <- extend t.seen false;
    t.lbd_mark <- extend t.lbd_mark 0
  end;
  if 2 * n > Array.length t.watches then begin
    let len = Array.length t.watches in
    let cap = max (4 * n) (2 * len) in
    t.watches <-
      Array.init cap (fun i -> if i < len then t.watches.(i) else Iv.create ())
  end

let ensure_arena t need =
  let cap = Array.length t.arena in
  if t.arena_len + need > cap then begin
    let cap' = ref (max 1024 (2 * cap)) in
    while t.arena_len + need > !cap' do
      cap' := 2 * !cap'
    done;
    let a = Array.make !cap' 0 in
    Array.blit t.arena 0 a 0 t.arena_len;
    t.arena <- a
  end

(* -------- activity heap -------- *)

let heap_lt t a b = t.activity.(a) > t.activity.(b)

let rec heap_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_lt t t.heap.(i) t.heap.(p) then begin
      let vi = t.heap.(i) and vp = t.heap.(p) in
      t.heap.(i) <- vp; t.heap.(p) <- vi;
      t.heap_pos.(vp) <- i; t.heap_pos.(vi) <- p;
      heap_up t p
    end
  end

let rec heap_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_size && heap_lt t t.heap.(l) t.heap.(!best) then best := l;
  if r < t.heap_size && heap_lt t t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    let vi = t.heap.(i) and vb = t.heap.(!best) in
    t.heap.(i) <- vb; t.heap.(!best) <- vi;
    t.heap_pos.(vb) <- i; t.heap_pos.(vi) <- !best;
    heap_down t !best
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    t.heap.(t.heap_size) <- v;
    t.heap_pos.(v) <- t.heap_size;
    t.heap_size <- t.heap_size + 1;
    heap_up t t.heap_pos.(v)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_size <- t.heap_size - 1;
  t.heap_pos.(v) <- -1;
  if t.heap_size > 0 then begin
    let last = t.heap.(t.heap_size) in
    t.heap.(0) <- last;
    t.heap_pos.(last) <- 0;
    heap_down t 0
  end;
  v

let bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do t.activity.(i) <- t.activity.(i) *. 1e-100 done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v)

(* -------- variables -------- *)

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  grow_to t t.nvars;
  heap_insert t v;
  v + 1

(* -------- assignment -------- *)

let lit_value t l =
  (* 1 true / 0 false / -1 unassigned, from the literal's viewpoint *)
  let a = t.assigns.(var_of_lit l) in
  if a < 0 then -1 else if lit_sign l then a else 1 - a

let decision_level t = t.trail_lim_size

let enqueue t l reason =
  let v = var_of_lit l in
  t.assigns.(v) <- (if lit_sign l then 1 else 0);
  t.polarity.(v) <- lit_sign l;
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.trail.(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_size - 1 downto bound do
      let v = var_of_lit t.trail.(i) in
      t.assigns.(v) <- -1;
      t.reason.(v) <- -1;
      heap_insert t v
    done;
    t.trail_size <- bound;
    t.qhead <- bound;
    t.trail_lim_size <- lvl
  end

(* -------- clause allocation -------- *)

let alloc_clause t lits ~learnt ~lbd =
  let size = Array.length lits in
  ensure_arena t (size + 2);
  let cref = t.arena_len in
  t.arena.(cref) <- info_make ~size ~lbd ~learnt;
  t.arena.(cref + 1) <- t.probe;
  Array.blit lits 0 t.arena (cref + 2) size;
  t.arena_len <- cref + 2 + size;
  cref

(* watches.(l) holds the clauses watching literal [l]; they are visited
   when [l] is falsified.  The companion int is a blocker: any other
   literal of the clause, tested before the arena is touched. *)
let attach t cref =
  let l0 = t.arena.(cref + 2) and l1 = t.arena.(cref + 3) in
  Iv.push2 t.watches.(l0) cref l1;
  Iv.push2 t.watches.(l1) cref l0

(* -------- propagation -------- *)

(* Returns the conflicting cref, or -1.  A learnt clause from an older
   probe epoch that propagates or conflicts counts as a reused hit. *)
let propagate t =
  let confl = ref (-1) in
  while !confl < 0 && t.qhead < t.trail_size do
    let l = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    let falsified = neg l in
    let ws = t.watches.(falsified) in
    let arena = t.arena in
    let n = ws.Iv.n in
    let wa = ws.Iv.a in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let cref = wa.(!i) and blocker = wa.(!i + 1) in
      if lit_value t blocker = 1 then begin
        (* Clause satisfied by the blocker: keep, untouched. *)
        wa.(!j) <- cref;
        wa.(!j + 1) <- blocker;
        i := !i + 2;
        j := !j + 2
      end
      else begin
        let base = cref + 2 in
        (* Normalise: the falsified watch sits in slot 1. *)
        if arena.(base) = falsified then begin
          arena.(base) <- arena.(base + 1);
          arena.(base + 1) <- falsified
        end;
        let first = arena.(base) in
        if lit_value t first = 1 then begin
          (* Satisfied by the other watch: keep it as the blocker. *)
          wa.(!j) <- cref;
          wa.(!j + 1) <- first;
          i := !i + 2;
          j := !j + 2
        end
        else begin
          (* Look for a new watchable literal. *)
          let size = c_size arena cref in
          let k = ref 2 in
          while !k < size && lit_value t arena.(base + !k) = 0 do incr k done;
          if !k < size then begin
            (* Move the watch; this clause leaves the current list. *)
            arena.(base + 1) <- arena.(base + !k);
            arena.(base + !k) <- falsified;
            Iv.push2 t.watches.(arena.(base + 1)) cref first;
            i := !i + 2
          end
          else begin
            (* Unit or conflicting. *)
            wa.(!j) <- cref;
            wa.(!j + 1) <- first;
            i := !i + 2;
            j := !j + 2;
            if c_learnt arena cref && arena.(cref + 1) < t.probe then
              t.n_reused <- t.n_reused + 1;
            if lit_value t first = 0 then begin
              (* Conflict: keep the unvisited watchers before bailing. *)
              while !i < n do
                wa.(!j) <- wa.(!i);
                wa.(!j + 1) <- wa.(!i + 1);
                i := !i + 2;
                j := !j + 2
              done;
              confl := cref
            end
            else begin
              t.n_props <- t.n_props + 1;
              enqueue t first cref
            end
          end
        end
      end
    done;
    ws.Iv.n <- !j
  done;
  !confl

(* -------- clauses -------- *)

let add_clause t ext_lits =
  let lits = List.map (internal t) ext_lits in
  if t.ok then begin
    t.has_model <- false;
    (* The API only adds clauses at level 0 (incremental use between
       solves); dedupe and drop clauses with complementary literals. *)
    cancel_until t 0;
    let lits = List.sort_uniq compare lits in
    let taut = List.exists (fun l -> List.memq (neg l) lits) lits in
    let lits = List.filter (fun l -> lit_value t l <> 0) lits in
    if not taut then
      if List.exists (fun l -> lit_value t l = 1) lits then ()
      else
        match lits with
        | [] -> t.ok <- false
        | [ l ] ->
            enqueue t l (-1);
            if propagate t >= 0 then t.ok <- false
        | _ ->
            let cref = alloc_clause t (Array.of_list lits) ~learnt:false ~lbd:0 in
            Iv.push t.problems cref;
            attach t cref
  end

(* -------- LBD -------- *)

let compute_lbd t lits =
  t.lbd_epoch <- t.lbd_epoch + 1;
  let n = ref 0 in
  Array.iter
    (fun l ->
      let lv = t.level.(var_of_lit l) in
      if lv > 0 && t.lbd_mark.(lv) <> t.lbd_epoch then begin
        t.lbd_mark.(lv) <- t.lbd_epoch;
        incr n
      end)
    lits;
  !n

(* -------- conflict analysis (first UIP) -------- *)

let analyze t confl =
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (t.trail_size - 1) in
  let continue = ref true in
  while !continue do
    let c = !confl in
    assert (c >= 0);
    let base = c + 2 in
    let size = c_size t.arena c in
    (* Skip the literal being resolved on ([p]) on continuation rounds. *)
    for qi = 0 to size - 1 do
      let q = t.arena.(base + qi) in
      if q <> !p then begin
        let v = var_of_lit q in
        if (not t.seen.(v)) && t.level.(v) > 0 then begin
          t.seen.(v) <- true;
          bump t v;
          if t.level.(v) >= decision_level t then incr counter
          else learnt := q :: !learnt
        end
      end
    done;
    (* Walk the trail back to the next marked literal. *)
    while not t.seen.(var_of_lit t.trail.(!idx)) do decr idx done;
    let l = t.trail.(!idx) in
    let v = var_of_lit l in
    t.seen.(v) <- false;
    decr idx;
    decr counter;
    if !counter = 0 then begin
      p := neg l;
      continue := false
    end
    else begin
      p := l;
      confl := t.reason.(v)
    end
  done;
  let c = Array.of_list (!p :: !learnt) in
  List.iter (fun l -> t.seen.(var_of_lit l) <- false) !learnt;
  (* Backtrack level: highest level among the non-asserting literals.
     That literal must also sit in watch slot 1, so that both watches
     are the last-falsified literals after the backjump. *)
  let blevel = ref 0 in
  for i = 1 to Array.length c - 1 do
    let lv = t.level.(var_of_lit c.(i)) in
    if lv > !blevel then begin
      blevel := lv;
      let tmp = c.(1) in
      c.(1) <- c.(i);
      c.(i) <- tmp
    end
  done;
  (c, !blevel)

(* -------- clause-DB reduction -------- *)

let locked t cref =
  let v = var_of_lit t.arena.(cref + 2) in
  t.assigns.(v) >= 0 && t.reason.(v) = cref

(* Rebuild the arena from the live clauses, remap reasons through
   forwarding pointers, and reattach every watch list.  Called at any
   decision level: locked clauses are never deleted, so every reason on
   the trail survives. *)
let compact t =
  let needed = ref 0 in
  let count iv =
    for i = 0 to iv.Iv.n - 1 do
      let cref = iv.Iv.a.(i) in
      if not (c_deleted t.arena cref) then
        needed := !needed + c_size t.arena cref + 2
    done
  in
  count t.problems;
  count t.learnts;
  let na = Array.make (max 1024 !needed) 0 in
  let nlen = ref 0 in
  let forward cref =
    let size = c_size t.arena cref in
    let nc = !nlen in
    Array.blit t.arena cref na nc (size + 2);
    nlen := nc + size + 2;
    (* Forwarding pointer for the reason remap below. *)
    t.arena.(cref) <- -1;
    t.arena.(cref + 1) <- nc;
    nc
  in
  let sweep iv =
    let j = ref 0 in
    for i = 0 to iv.Iv.n - 1 do
      let cref = iv.Iv.a.(i) in
      if not (c_deleted t.arena cref) then begin
        iv.Iv.a.(!j) <- forward cref;
        incr j
      end
    done;
    iv.Iv.n <- !j
  in
  sweep t.problems;
  sweep t.learnts;
  t.n_live_learnt <- t.learnts.Iv.n;
  for i = 0 to t.trail_size - 1 do
    let v = var_of_lit t.trail.(i) in
    let r = t.reason.(v) in
    if r >= 0 then begin
      assert (t.arena.(r) = -1);
      t.reason.(v) <- t.arena.(r + 1)
    end
  done;
  t.arena <- na;
  t.arena_len <- !nlen;
  for l = 0 to (2 * t.nvars) - 1 do
    Iv.clear t.watches.(l)
  done;
  let reattach iv =
    for i = 0 to iv.Iv.n - 1 do
      attach t iv.Iv.a.(i)
    done
  in
  reattach t.problems;
  reattach t.learnts

(* Drop the worst half of the deletable learnt clauses: glue clauses
   (LBD <= 3) and locked reasons are kept unconditionally; the rest are
   ranked by LBD with clause age as the deterministic tie-break. *)
let reduce_db t =
  let cand = ref [] in
  let ncand = ref 0 in
  for i = 0 to t.learnts.Iv.n - 1 do
    let cref = t.learnts.Iv.a.(i) in
    if
      (not (c_deleted t.arena cref))
      && c_lbd t.arena cref > 3
      && not (locked t cref)
    then begin
      cand := cref :: !cand;
      incr ncand
    end
  done;
  let cand = Array.of_list !cand in
  Array.sort
    (fun a b ->
      let c = compare (c_lbd t.arena a) (c_lbd t.arena b) in
      if c <> 0 then c else compare a b)
    cand;
  (* Delete the high-LBD half. *)
  let keep = !ncand / 2 in
  for i = keep to !ncand - 1 do
    c_delete t.arena cand.(i);
    t.n_deleted_total <- t.n_deleted_total + 1;
    t.n_live_learnt <- t.n_live_learnt - 1
  done;
  if !ncand > keep then compact t;
  t.reduce_limit <- t.reduce_limit + max 256 (t.reduce_limit / 4)

let clear_learnt t =
  cancel_until t 0;
  (* A learnt clause serving as the reason of a level-0 literal can be
     dropped by orphaning the pointer: conflict analysis never
     dereferences level-0 reasons (its [level > 0] guard), and the
     literal itself stays on the trail. *)
  for i = 0 to t.trail_size - 1 do
    let v = var_of_lit t.trail.(i) in
    let r = t.reason.(v) in
    if r >= 0 && c_learnt t.arena r then t.reason.(v) <- -1
  done;
  let dropped = ref 0 in
  for i = 0 to t.learnts.Iv.n - 1 do
    let cref = t.learnts.Iv.a.(i) in
    if not (c_deleted t.arena cref) then begin
      c_delete t.arena cref;
      incr dropped;
      t.n_deleted_total <- t.n_deleted_total + 1;
      t.n_live_learnt <- t.n_live_learnt - 1
    end
  done;
  if !dropped > 0 then compact t

(* -------- restarts: Luby sequence -------- *)

let rec luby i =
  (* Smallest k with i < 2^k - 1 determines the value. *)
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if i = (1 lsl !k) - 1 then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

(* -------- search -------- *)

let pick_branch t =
  let rec go () =
    if t.heap_size = 0 then -1
    else
      let v = heap_pop t in
      if t.assigns.(v) < 0 then v else go ()
  in
  go ()

let solve ?(assumptions = []) ?(deadline = infinity) ?max_conflicts t =
  t.has_model <- false;
  if not t.ok then Unsat
  else begin
    cancel_until t 0;
    let assumptions = List.map (internal t) assumptions in
    let nassumed = List.length assumptions in
    let budget =
      match max_conflicts with Some b -> t.n_conflicts + b | None -> max_int
    in
    let restart_base = 64 in
    let restart_idx = ref 1 in
    let conflicts_left = ref (restart_base * luby !restart_idx) in
    let result = ref Unknown in
    (try
       while !result = Unknown do
         let confl = propagate t in
         if confl >= 0 then begin
           t.n_conflicts <- t.n_conflicts + 1;
           decr conflicts_left;
           if decision_level t = 0 then begin
             t.ok <- false;
             result := Unsat
           end
           else if decision_level t <= nassumed then
             (* The conflict depends only on assumptions: unsat under
                them, but the clause set itself stays usable. *)
             result := Unsat
           else begin
             let learnt, blevel = analyze t confl in
             (match learnt with
             | [| l |] ->
                 (* A learnt unit is implied by the clause set alone
                    (assumption literals would survive analysis as extra
                    literals), so it is sound — and pays off across
                    probes — to pin it at level 0; the decision loop
                    re-assumes the prefix afterwards. *)
                 cancel_until t 0;
                 enqueue t l (-1)
             | _ ->
                 (* Never backtrack into the assumption prefix. *)
                 let blevel = max blevel nassumed in
                 cancel_until t blevel;
                 let lbd = compute_lbd t learnt in
                 let cref = alloc_clause t learnt ~learnt:true ~lbd in
                 Iv.push t.learnts cref;
                 t.n_learnt_total <- t.n_learnt_total + 1;
                 t.n_live_learnt <- t.n_live_learnt + 1;
                 attach t cref;
                 enqueue t learnt.(0) cref);
             t.var_inc <- t.var_inc /. 0.95;
             if t.n_live_learnt >= t.reduce_limit then reduce_db t;
             if t.n_conflicts land 255 = 0 && Hca_util.Clock.now () > deadline
             then raise Exit;
             if t.n_conflicts >= budget then raise Exit
           end
         end
         else begin
           if !conflicts_left <= 0 then begin
             (* Restart, keeping the assumption prefix semantics: we
                backtrack to 0 and let the decision loop re-assume. *)
             incr restart_idx;
             conflicts_left := restart_base * luby !restart_idx;
             cancel_until t 0
           end;
           (* Re-apply any pending assumption first. *)
           let lvl = decision_level t in
           if lvl < nassumed then begin
             let a = List.nth assumptions lvl in
             match lit_value t a with
             | 1 ->
                 (* Already implied: open an empty decision level so
                    the prefix depth still matches the list index. *)
                 t.trail_lim.(t.trail_lim_size) <- t.trail_size;
                 t.trail_lim_size <- t.trail_lim_size + 1
             | 0 -> result := Unsat
             | _ ->
                 t.trail_lim.(t.trail_lim_size) <- t.trail_size;
                 t.trail_lim_size <- t.trail_lim_size + 1;
                 enqueue t a (-1)
           end
           else begin
             match pick_branch t with
             | -1 ->
                 result := Sat;
                 t.has_model <- true
             | v ->
                 t.trail_lim.(t.trail_lim_size) <- t.trail_size;
                 t.trail_lim_size <- t.trail_lim_size + 1;
                 let l = if t.polarity.(v) then 2 * v else (2 * v) + 1 in
                 enqueue t l (-1)
           end
         end
       done
     with Exit -> result := Unknown);
    if !result <> Sat then cancel_until t 0;
    !result
  end

let value t ext =
  if not t.has_model then invalid_arg "Sat.value: no model available";
  let v = abs ext - 1 in
  if ext = 0 || v >= t.nvars then invalid_arg "Sat.value: variable out of range";
  let a = t.assigns.(v) in
  let pos = a = 1 in
  if ext > 0 then pos else not pos

let fold_problem_clauses t f acc =
  let acc = ref acc in
  for i = 0 to t.problems.Iv.n - 1 do
    let cref = t.problems.Iv.a.(i) in
    let base = cref + 2 in
    let size = c_size t.arena cref in
    let lits = List.init size (fun k -> external_ t.arena.(base + k)) in
    acc := f !acc lits
  done;
  !acc
