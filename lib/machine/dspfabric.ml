type t = Machine_desc.t

let make ?(fanouts = [| 4; 4; 4 |]) ?(cn_in_wires = 2) ?(dma_ports = 8) ~n ~m
    ~k () =
  if Array.length fanouts < 2 then
    invalid_arg "Dspfabric.make: need at least two levels";
  Array.iter
    (fun f -> if f < 2 then invalid_arg "Dspfabric.make: fan-out must be >= 2")
    fanouts;
  if n <= 0 || m <= 0 || k <= 0 then
    invalid_arg "Dspfabric.make: MUX capacities must be positive";
  if cn_in_wires <= 0 || dma_ports <= 0 then
    invalid_arg "Dspfabric.make: cn_in_wires and dma_ports must be positive";
  let depth = Array.length fanouts in
  (* N applies at level 0, K at the leaf crossbar, M at every level in
     between (the reference machine has exactly one such level). *)
  let levels =
    Array.init depth (fun lvl ->
        {
          Machine_desc.fanout = fanouts.(lvl);
          mux_cap = (if lvl = 0 then n else if lvl = depth - 1 then k else m);
        })
  in
  let total = Array.fold_left ( * ) 1 fanouts in
  Machine_desc.make
    ~name:(Printf.sprintf "dspfabric-%d(N=%d,M=%d,K=%d)" total n m k)
    ~levels ~cn_in_wires ~dma_ports ()

let reference = make ~n:8 ~m:8 ~k:8 ()

let total_cns = Machine_desc.total_cns

let depth = Machine_desc.depth

let dma_ports = Machine_desc.dma_ports

let name = Machine_desc.name

let id = Machine_desc.id

type level_view = Machine_desc.level_view = {
  level : int;
  children : int;
  cns_per_child : int;
  mux_capacity : int;
  out_capacity : int;
  max_in_ports : int;
  is_leaf : bool;
}

let level_view = Machine_desc.level_view

let child_capacities = Machine_desc.child_capacities

let resources = Machine_desc.resources
