(* Fixed-width bitset over [Bytes].  The SEE hot path uses these for
   touched-cluster dedup and candidate masks, so every operation below
   is allocation-free after [create] (except [copy]/[to_list]). *)

type t = {
  width : int;
  bits : Bytes.t;
}

let create width =
  if width < 0 then invalid_arg "Bitset.create: negative width";
  { width; bits = Bytes.make ((width + 7) lsr 3) '\000' }

let check t i =
  if i < 0 || i >= t.width then invalid_arg "Bitset: index out of bounds"

let set t i =
  check t i;
  let b = i lsr 3 in
  Bytes.unsafe_set t.bits b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits b) lor (1 lsl (i land 7))))

let clear t i =
  check t i;
  let b = i lsr 3 in
  Bytes.unsafe_set t.bits b
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bits b) land lnot (1 lsl (i land 7))))

let mem t i =
  check t i;
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let reset t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

let copy t = { t with bits = Bytes.copy t.bits }

let equal a b = a.width = b.width && Bytes.equal a.bits b.bits

(* Kernighan popcount per byte; widths here are tens of bits, so a
   lookup table would be over-engineering. *)
let popcount_byte c =
  let x = ref c and n = ref 0 in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr n
  done;
  !n

let cardinal t =
  let n = ref 0 in
  for b = 0 to Bytes.length t.bits - 1 do
    n := !n + popcount_byte (Char.code (Bytes.unsafe_get t.bits b))
  done;
  !n

let inter_count a b =
  if a.width <> b.width then invalid_arg "Bitset.inter_count: width mismatch";
  let n = ref 0 in
  for i = 0 to Bytes.length a.bits - 1 do
    n :=
      !n
      + popcount_byte
          (Char.code (Bytes.unsafe_get a.bits i)
          land Char.code (Bytes.unsafe_get b.bits i))
  done;
  !n

let iter f t =
  for b = 0 to Bytes.length t.bits - 1 do
    let c = Char.code (Bytes.unsafe_get t.bits b) in
    if c <> 0 then
      for o = 0 to 7 do
        if c land (1 lsl o) <> 0 then f ((b lsl 3) lor o)
      done
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i l -> i :: l) t [])
