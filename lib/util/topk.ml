(* Bounded insertion over caller-owned arrays: [into.(0..n-1)] holds
   the indices of the best keys so far, keys ascending, ties in index
   order.  The selected keys are read back through [into], so the
   selection needs no buffer of its own and allocates nothing. *)
let smallest_into ~k keys ~len ~into =
  let n = ref 0 in
  if k > 0 then
    for i = 0 to len - 1 do
      let kx = keys.(i) in
      if kx = kx && kx <> infinity && kx <> neg_infinity then
        if !n < k || kx < keys.(into.(!n - 1)) then begin
          (* Shift the strictly-greater tail right; an equal key stays
             left of the newcomer (stability). *)
          let j = ref (if !n < k then !n else k - 1) in
          while !j > 0 && keys.(into.(!j - 1)) > kx do
            into.(!j) <- into.(!j - 1);
            decr j
          done;
          into.(!j) <- i;
          if !n < k then incr n
        end
    done;
  !n
