type weights = {
  w_copy : float;
  w_balance : float;
  w_pressure : float;
  w_port : float;
  w_util : float;
  w_fanin : float;
  w_tear : float;
  w_carried : float;
}

let default_weights =
  {
    w_copy = 1.0;
    w_balance = 0.5;
    w_pressure = 8.0;
    w_port = 0.25;
    w_util = 0.5;
    w_fanin = 2.0;
    w_tear = 1.5;
    w_carried = 6.0;
  }

type summary = {
  copies : int;
  max_util : float;
  util_spread : float;
  projected_ii : int;
  target_ii : int;
  used_in_ports : int;
  fanin_sat : float;
  carried_cuts : int;
}

let ceil_div a b = (a + b - 1) / b

(* Scalar twin of {!cluster_mii} for the flat-layout hot path: same
   arithmetic on unpacked demand/capacity components, so the SEE's
   per-cluster refresh never builds [Resource.t] records. *)
let cluster_mii_flat ~d_alus ~d_ags ~c_alus ~c_ags ~receives ~max_in =
  (* Inlined [Resource.min_ii]. *)
  let need amount cap =
    if amount = 0 then 1
    else if cap = 0 then max_int
    else ceil_div amount cap
  in
  let p =
    max
      (need (d_alus + d_ags) (max c_alus c_ags))
      (max (need d_alus c_alus) (need d_ags c_ags))
  in
  let p =
    if c_alus > 0 then max p (ceil_div (d_alus + receives) c_alus) else p
  in
  if receives > 0 then max p (ceil_div receives max_in) else p

let cluster_mii ~demand ~capacity ~receives ~max_in =
  let open Hca_machine in
  cluster_mii_flat ~d_alus:demand.Resource.alus ~d_ags:demand.Resource.ags
    ~c_alus:capacity.Resource.alus ~c_ags:capacity.Resource.ags ~receives
    ~max_in

(* The one and only scoring arithmetic: {!score} and the SEE's batch
   scorer both land here, so "bit-identical" is true by construction —
   the float operations and their order exist exactly once. *)
let[@inline] score_flat w ~copies ~max_util ~util_spread ~projected_ii
    ~target_ii ~used_in_ports ~fanin_sat ~carried_cuts =
  let overshoot = max 0 (projected_ii - target_ii) in
  (w.w_copy *. float_of_int copies)
  +. (w.w_balance *. util_spread)
  +. (w.w_pressure *. float_of_int overshoot)
  +. (w.w_port *. float_of_int used_in_ports)
  +. (w.w_util *. max_util)
  +. (w.w_fanin *. fanin_sat)
  +. (w.w_carried *. float_of_int carried_cuts)

let score w s =
  score_flat w ~copies:s.copies ~max_util:s.max_util
    ~util_spread:s.util_spread ~projected_ii:s.projected_ii
    ~target_ii:s.target_ii ~used_in_ports:s.used_in_ports
    ~fanin_sat:s.fanin_sat ~carried_cuts:s.carried_cuts

(* The SEE's hot path calls this from another module, where a float
   argument or result would box: the float terms come in, and the score
   goes out, through the caller's array. *)
let score_terms w terms ~copies ~projected_ii ~target_ii ~used_in_ports
    ~carried_cuts =
  terms.(3) <-
    score_flat w ~copies ~max_util:terms.(0) ~util_spread:terms.(1)
      ~projected_ii ~target_ii ~used_in_ports ~fanin_sat:terms.(2)
      ~carried_cuts
