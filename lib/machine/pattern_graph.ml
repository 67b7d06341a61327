open Hca_ddg

type node_id = int

type kind =
  | Regular
  | In_port of { wire : int; values : Instr.id list }
  | Out_port of { wire : int; values : Instr.id list }

type node = {
  id : node_id;
  kind : kind;
  capacity : Resource.t;
}

type t = {
  name : string;
  nodes : node array;
  potential : Bytes.t;  (* [src * size + dst] is ['\001'] for a potential arc *)
  max_in : int;
}

let matrix n f =
  Bytes.init (n * n) (fun k -> if f (k / n) (k mod n) then '\001' else '\000')

let potential_at t ~src ~dst =
  Bytes.get t.potential ((src * Array.length t.nodes) + dst) <> '\000'

let check_capacities capacities =
  if Array.length capacities = 0 then
    invalid_arg "Pattern_graph: no cluster nodes"

let complete ~name ~capacities ~max_in =
  check_capacities capacities;
  if max_in <= 0 then invalid_arg "Pattern_graph.complete: max_in must be > 0";
  let n = Array.length capacities in
  let nodes =
    Array.mapi (fun id capacity -> { id; kind = Regular; capacity }) capacities
  in
  { name; nodes; potential = matrix n (fun i j -> i <> j); max_in }

let of_adjacency ~name ~capacities ~max_in ~potential =
  check_capacities capacities;
  if max_in <= 0 then
    invalid_arg "Pattern_graph.of_adjacency: max_in must be > 0";
  let n = Array.length capacities in
  let nodes =
    Array.mapi (fun id capacity -> { id; kind = Regular; capacity }) capacities
  in
  List.iter
    (fun (src, dst) ->
      if src < 0 || src >= n || dst < 0 || dst >= n || src = dst then
        invalid_arg "Pattern_graph.of_adjacency: bad potential arc")
    potential;
  { name; nodes; potential = matrix n (fun i j -> List.mem (i, j) potential); max_in }

let has_ports t =
  Array.exists (fun nd -> nd.kind <> Regular) t.nodes

let with_ports t ~inputs ~outputs =
  if has_ports t then
    invalid_arg "Pattern_graph.with_ports: graph already has ports";
  let n_reg = Array.length t.nodes in
  let n_in = List.length inputs in
  let n_out = List.length outputs in
  let n = n_reg + n_in + n_out in
  let nodes = Array.make n t.nodes.(0) in
  Array.blit t.nodes 0 nodes 0 n_reg;
  List.iteri
    (fun i (wire, values) ->
      let id = n_reg + i in
      nodes.(id) <- { id; kind = In_port { wire; values }; capacity = Resource.zero })
    inputs;
  List.iteri
    (fun i (wire, values) ->
      let id = n_reg + n_in + i in
      nodes.(id) <-
        { id; kind = Out_port { wire; values }; capacity = Resource.zero })
    outputs;
  (* Input ports broadcast to every regular node; every regular node can
     reach every output port. *)
  let potential =
    matrix n (fun i j ->
        if i < n_reg && j < n_reg then potential_at t ~src:i ~dst:j
        else if i < n_reg then j >= n_reg + n_in
        else i < n_reg + n_in && j < n_reg)
  in
  { t with nodes; potential }

let name t = t.name

let size t = Array.length t.nodes

let node t id =
  if id < 0 || id >= size t then invalid_arg "Pattern_graph.node: bad id";
  t.nodes.(id)

let nodes t = t.nodes

let filter_nodes t p = Array.to_list t.nodes |> List.filter p

let regular_nodes t = filter_nodes t (fun nd -> nd.kind = Regular)

let in_ports t =
  filter_nodes t (fun nd -> match nd.kind with In_port _ -> true | _ -> false)

let out_ports t =
  filter_nodes t (fun nd ->
      match nd.kind with Out_port _ -> true | _ -> false)

let max_in t = t.max_in

let is_potential t ~src ~dst =
  src >= 0 && src < size t && dst >= 0 && dst < size t
  && potential_at t ~src ~dst

let potential_preds t id =
  let acc = ref [] in
  for src = size t - 1 downto 0 do
    if potential_at t ~src ~dst:id then acc := src :: !acc
  done;
  !acc

let potential_succs t id =
  let acc = ref [] in
  for dst = size t - 1 downto 0 do
    if potential_at t ~src:id ~dst then acc := dst :: !acc
  done;
  !acc

let is_regular t id = (node t id).kind = Regular

let port_values nd =
  match nd.kind with
  | Regular -> []
  | In_port { values; _ } | Out_port { values; _ } -> values

let pp ppf t =
  Format.fprintf ppf "@[<v>pg %s (%d nodes, max_in=%d)" t.name (size t) t.max_in;
  Array.iter
    (fun nd ->
      let kind =
        match nd.kind with
        | Regular -> "reg"
        | In_port { wire; _ } -> Printf.sprintf "in(w%d)" wire
        | Out_port { wire; _ } -> Printf.sprintf "out(w%d)" wire
      in
      Format.fprintf ppf "@,  #%d %s %a" nd.id kind Resource.pp nd.capacity)
    t.nodes;
  Format.fprintf ppf "@]"
