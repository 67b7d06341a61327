(* Summary statistics for benchmark samples.  Every function takes the
   samples in any order and never mutates its argument. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let require_samples fn xs =
  if Array.length xs = 0 then invalid_arg (fn ^ ": no samples")

let median xs =
  require_samples "Stats.median" xs;
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(xs, n)] with its default "exclusive"
   method, so spreads computed here match the ones any Python tooling
   computes from the printed values. *)
let quantiles ?(n = 4) xs =
  if Array.length xs < 2 then invalid_arg "Stats.quantiles: need two samples";
  if n < 1 then invalid_arg "Stats.quantiles: n < 1";
  let a = sorted xs in
  let ld = Array.length a in
  let m = ld + 1 in
  List.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n)

let mad xs =
  let m = median xs in
  median (Array.map (fun x -> Float.abs (x -. m)) xs)

let geomean xs =
  require_samples "Stats.geomean" xs;
  Array.iter
    (fun x -> if not (x > 0.) then invalid_arg "Stats.geomean: non-positive sample")
    xs;
  exp (Array.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (Array.length xs))

type percentile = { value : float; samples : int; beyond : int }

let min_beyond = 10

(* Nearest-rank percentile.  A tail figure backed by fewer than
   [min_beyond] samples above it is mostly one or two outliers, so it is
   refused rather than reported; the caller always gets the counts. *)
let percentile xs p =
  if p <= 0. || p >= 100. then invalid_arg "Stats.percentile: p outside (0, 100)";
  let n = Array.length xs in
  let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
  let beyond = max 0 (n - rank) in
  let r = { value = (if n = 0 then nan else (sorted xs).(rank - 1)); samples = n; beyond } in
  if beyond < min_beyond then Error r else Ok r
