(* FNV-1a over machine words.  OCaml native ints wrap on overflow, so
   the running product stays a well-defined 63-bit mix on every
   platform; the fold order is part of the signature, which is exactly
   what the callers want (instructions, edges and placements are
   hashed in a canonical iteration order). *)

type t = { mutable h : int }

let offset_basis = 0x3bf29ce484222325 (* FNV offset basis, 62-bit truncation *)

let prime = 0x100000001b3

let create ?(seed = 0) () = { h = offset_basis lxor seed }

let add_int t x =
  (* Mix both halves so small ints still touch the high bits. *)
  t.h <- (t.h lxor (x land 0xffffffff)) * prime;
  t.h <- (t.h lxor ((x lsr 32) land 0x7fffffff)) * prime

let add_int_array t a =
  add_int t (Array.length a);
  Array.iter (fun x -> add_int t x) a

let add_string t s =
  add_int t (String.length s);
  String.iter (fun c -> add_int t (Char.code c)) s

let value t = t.h land max_int

let ints l =
  let t = create () in
  add_int t (List.length l);
  List.iter (fun x -> add_int t x) l;
  value t
