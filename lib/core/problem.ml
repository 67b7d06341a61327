open Hca_ddg
open Hca_machine

type node = {
  id : int;
  demand : Resource.t;
  pinned : Pattern_graph.node_id option;
  global : Instr.id option;
  value : Instr.id;
  label : string;
}

type edge = {
  src : int;
  dst : int;
  value : Instr.id;
  latency : int;
  distance : int;
}

type t = {
  name : string;
  nodes : node array;
  edges : edge array;
  succs : edge list array;
  preds : edge list array;
  pg : Pattern_graph.t;
  max_in_ports : int;
  scc : int array;  (* recurrence-circuit id per node, -1 when trivial *)
}

(* The shared graph algorithms, over the successor lists [finish]
   builds. *)
module Algo = Graph_algo.Make (struct
  type t = edge list array
  type nonrec edge = edge
  let size = Array.length
  let succs = Array.get
  let dst e = e.dst
  let latency e = e.latency
  let distance e = e.distance
end)

(* Only the circuits matter, so nodes on no circuit get -1. *)
let circuit_ids succs =
  let scc = Array.make (Array.length succs) (-1) in
  Array.iteri
    (fun c members -> List.iter (fun v -> scc.(v) <- c) members)
    (Algo.nontrivial_sccs succs);
  scc

let finish ~name ~nodes ~edges ~pg ~max_in_ports =
  let nodes = Array.of_list (List.rev nodes) in
  let edges = Array.of_list (List.rev edges) in
  let n = Array.length nodes in
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  Array.iter
    (fun e ->
      succs.(e.src) <- e :: succs.(e.src);
      preds.(e.dst) <- e :: preds.(e.dst))
    edges;
  Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  let scc = circuit_ids succs in
  { name; nodes; edges; succs; preds; pg; max_in_ports; scc }

let instr_node ~id (i : Instr.t) =
  {
    id;
    demand = Resource.of_unit_class (Opcode.unit_class i.opcode);
    pinned = None;
    global = Some i.id;
    value = i.id;
    label = i.name;
  }

let of_ddg ~name ~ddg ~pg ?(max_in_ports = max_int) () =
  if Pattern_graph.in_ports pg <> [] || Pattern_graph.out_ports pg <> [] then
    invalid_arg "Problem.of_ddg: PG must be port-free (use of_working_set)";
  let nodes =
    Array.to_list (Ddg.instrs ddg)
    |> List.rev_map (fun i -> instr_node ~id:i.Instr.id i)
  in
  let edges =
    Array.to_list (Ddg.edges ddg)
    |> List.rev_map (fun (e : Ddg.edge) ->
           {
             src = e.src;
             dst = e.dst;
             value = e.src;
             latency = e.latency;
             distance = e.distance;
           })
  in
  finish ~name ~nodes ~edges ~pg ~max_in_ports

let flat machine ddg =
  let cns = Machine_desc.total_cns machine in
  let leaf =
    Machine_desc.level_view machine ~level:(Machine_desc.depth machine - 1)
  in
  let pg =
    Pattern_graph.complete
      ~name:(Printf.sprintf "flat-K%d" cns)
      ~capacities:(Array.init cns (Machine_desc.cn_table machine))
      ~max_in:leaf.Machine_desc.mux_capacity
  in
  of_ddg ~name:(Ddg.name ddg ^ ".flat") ~ddg ~pg ()

let of_working_set ~name ~ddg ~ws ~pg ?(max_in_ports = max_int) () =
  let in_ws = Hashtbl.create (List.length ws) in
  List.iter (fun g -> Hashtbl.replace in_ws g ()) ws;
  let nodes = ref [] in
  let edges = ref [] in
  let next_id = ref 0 in
  let push_node mk =
    let id = !next_id in
    incr next_id;
    nodes := mk id :: !nodes;
    id
  in
  let push_edge e = edges := e :: !edges in
  (* Working-set instructions first, in global id order. *)
  let local_of_global = Hashtbl.create (List.length ws) in
  List.sort compare ws
  |> List.iter (fun g ->
         let i = Ddg.instr ddg g in
         let id = push_node (fun id -> instr_node ~id i) in
         Hashtbl.replace local_of_global g id);
  (* One pinned pseudo node per port.  [in_port_of] finds which input
     port delivers a given global value. *)
  let in_port_nodes = ref [] in
  List.iter
    (fun (pnd : Pattern_graph.node) ->
      let values = Pattern_graph.port_values pnd in
      let id =
        push_node (fun id ->
            {
              id;
              demand = Resource.zero;
              pinned = Some pnd.id;
              global = None;
              value = -1;
              label = Printf.sprintf "in@%d" pnd.id;
            })
      in
      in_port_nodes := (id, values) :: !in_port_nodes)
    (Pattern_graph.in_ports pg);
  let in_port_nodes = List.rev !in_port_nodes in
  let in_port_of v =
    List.find_opt (fun (_, values) -> List.mem v values) in_port_nodes
    |> Option.map fst
  in
  let out_port_nodes = ref [] in
  List.iter
    (fun (pnd : Pattern_graph.node) ->
      let values = Pattern_graph.port_values pnd in
      let id =
        push_node (fun id ->
            {
              id;
              demand = Resource.zero;
              pinned = Some pnd.id;
              global = None;
              value = -1;
              label = Printf.sprintf "out@%d" pnd.id;
            })
      in
      out_port_nodes := (id, values) :: !out_port_nodes)
    (Pattern_graph.out_ports pg);
  let out_port_nodes = List.rev !out_port_nodes in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  (* Internal and inbound dependences. *)
  Ddg.iter_edges
    (fun (e : Ddg.edge) ->
      let src_in = Hashtbl.mem in_ws e.src
      and dst_in = Hashtbl.mem in_ws e.dst in
      if dst_in then
        let dst = Hashtbl.find local_of_global e.dst in
        if src_in then
          push_edge
            {
              src = Hashtbl.find local_of_global e.src;
              dst;
              value = e.src;
              latency = e.latency;
              distance = e.distance;
            }
        else
          match in_port_of e.src with
          | Some port ->
              push_edge
                {
                  src = port;
                  dst;
                  value = e.src;
                  latency = e.latency;
                  distance = e.distance;
                }
          | None ->
              fail
                (Printf.sprintf
                   "value %%%d consumed by %%%d is on no input port" e.src
                   e.dst))
    ddg;
  (* Outbound values and pass-throughs.  A forward node is created once
     per (value, output port) pair that lacks a local producer. *)
  List.iter
    (fun (port, values) ->
      List.iter
        (fun v ->
          match Hashtbl.find_opt local_of_global v with
          | Some producer ->
              push_edge
                {
                  src = producer;
                  dst = port;
                  value = v;
                  latency = Opcode.latency (Ddg.instr ddg v).Instr.opcode;
                  distance = 0;
                }
          | None -> (
              match in_port_of v with
              | Some in_port ->
                  let fwd =
                    push_node (fun id ->
                        {
                          id;
                          demand = { Resource.alus = 1; ags = 0 };
                          pinned = None;
                          global = None;
                          value = v;
                          label = Printf.sprintf "fwd:%%%d" v;
                        })
                  in
                  push_edge
                    {
                      src = in_port;
                      dst = fwd;
                      value = v;
                      latency = Opcode.latency (Ddg.instr ddg v).Instr.opcode;
                      distance = 0;
                    };
                  push_edge
                    { src = fwd; dst = port; value = v; latency = 1; distance = 0 }
              | None ->
                  fail
                    (Printf.sprintf
                       "value %%%d owed to an output port has no producer \
                        nor input port"
                       v)))
        values)
    out_port_nodes;
  match !error with
  | Some msg -> Error (name ^ ": " ^ msg)
  | None -> Ok (finish ~name ~nodes:!nodes ~edges:!edges ~pg ~max_in_ports)

let name t = t.name

let size t = Array.length t.nodes

let node t id =
  if id < 0 || id >= size t then invalid_arg "Problem.node: bad id";
  t.nodes.(id)

let nodes t = t.nodes

let edges t = t.edges

let succs t id =
  if id < 0 || id >= size t then invalid_arg "Problem.succs: bad id";
  t.succs.(id)

let preds t id =
  if id < 0 || id >= size t then invalid_arg "Problem.preds: bad id";
  t.preds.(id)

let pg t = t.pg

let max_in_ports t = t.max_in_ports

let free_nodes t =
  Array.to_list t.nodes
  |> List.filter_map (fun n -> if n.pinned = None then Some n.id else None)

let forwards t =
  Array.to_list t.nodes
  |> List.filter (fun n -> n.pinned = None && n.global = None)

let height t = Algo.height t.succs

let scc_of t = t.scc

let pp ppf t =
  Format.fprintf ppf "@[<v>problem %s: %d nodes (%d free), %d edges on %s"
    t.name (size t)
    (List.length (free_nodes t))
    (Array.length t.edges) (Pattern_graph.name t.pg);
  Array.iter
    (fun n ->
      Format.fprintf ppf "@,  #%d %s %a%s" n.id n.label Resource.pp n.demand
        (match n.pinned with
        | Some c -> Printf.sprintf " pinned@%d" c
        | None -> ""))
    t.nodes;
  Format.fprintf ppf "@]"
