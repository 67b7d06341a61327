open Hca_ddg
open Hca_machine

let prefix l n = List.filteri (fun i _ -> i < n) l

(* Does the recorded machine model physically carry [value] over the
   PG hop [src -> dst]?  Regular hops need a wire with the right owner,
   sink and payload; port hops need the matching pre-allocation. *)
let wire_confirms (sub : Hierarchy.subresult) ~src ~dst ~value =
  let pg = sub.Hierarchy.pg in
  let model = sub.Hierarchy.model in
  let port_label id =
    match (Pattern_graph.node pg id).Pattern_graph.kind with
    | Pattern_graph.In_port { wire; _ } | Pattern_graph.Out_port { wire; _ } ->
        Some wire
    | Pattern_graph.Regular -> None
  in
  match (Pattern_graph.is_regular pg src, Pattern_graph.is_regular pg dst) with
  | true, true ->
      List.exists
        (fun w ->
          List.mem dst (Machine_model.wire_sinks model w)
          && List.mem value (Machine_model.wire_values model w))
        (Machine_model.used_out_wires model src)
  | false, true -> (
      match port_label src with
      | Some label ->
          List.mem label (Machine_model.external_ins model dst)
          && List.mem value
               (Pattern_graph.port_values (Pattern_graph.node pg src))
      | None -> false)
  | true, false -> (
      match port_label dst with
      | Some label ->
          List.exists
            (fun (l, w) ->
              l = label && List.mem value (Machine_model.wire_values model w))
            (Machine_model.external_outs model src)
      | None -> false)
  | false, false -> false

(* Breadth-first reachability over the flow arcs that carry [value] and
   are confirmed by the wires. *)
let value_reaches (sub : Hierarchy.subresult) ~value ~start ~goal =
  let flow = sub.Hierarchy.flow in
  let n = Pattern_graph.size sub.Hierarchy.pg in
  let seen = Array.make n false in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if not seen.(s) then begin
        seen.(s) <- true;
        Queue.push s q
      end)
    start;
  let found = ref (List.exists goal start) in
  while (not !found) && not (Queue.is_empty q) do
    let x = Queue.pop q in
    List.iter
      (fun y ->
        if
          (not seen.(y))
          && List.mem value (Copy_flow.Frozen.copies flow ~src:x ~dst:y)
          && wire_confirms sub ~src:x ~dst:y ~value
        then
          if goal y then found := true
          else begin
            seen.(y) <- true;
            Queue.push y q
          end)
      (Copy_flow.Frozen.real_out_neighbors flow x)
  done;
  !found

let in_ports_holding pg value =
  Pattern_graph.in_ports pg
  |> List.filter_map (fun (nd : Pattern_graph.node) ->
         if List.mem value (Pattern_graph.port_values nd) then Some nd.id
         else None)

let check_edge t (e : Ddg.edge) =
  let fabric = t.Hierarchy.fabric in
  let cn_u = t.Hierarchy.cn_of_instr.(e.src)
  and cn_v = t.Hierarchy.cn_of_instr.(e.dst) in
  if cn_u = cn_v then []
  else begin
    let du = Machine_desc.cn_path fabric cn_u
    and dv = Machine_desc.cn_path fabric cn_v in
    let depth = Dspfabric.depth fabric in
    let lca = Machine_desc.shared_depth fabric cn_u cn_v in
    let value = e.src in
    let errors = ref [] in
    let fail path msg =
      errors :=
        Printf.sprintf "edge %%%d->%%%d (cn %d->%d) at [%s]: %s" e.src e.dst
          cn_u cn_v
          (String.concat "," (List.map string_of_int path))
          msg
        :: !errors
    in
    let sub_at path =
      match Hierarchy.leaf_of_path t path with
      | Some sub -> Some sub
      | None ->
          fail path "subproblem missing";
          None
    in
    (* Ascend on the producer's side: the value must exit each nested
       level between the producer's leaf and the LCA. *)
    for i = depth - 1 downto lca + 1 do
      let path = prefix du i in
      match sub_at path with
      | None -> ()
      | Some sub ->
          let pg = sub.Hierarchy.pg in
          let outs =
            Pattern_graph.out_ports pg
            |> List.filter_map (fun (nd : Pattern_graph.node) ->
                   if List.mem value (Pattern_graph.port_values nd) then
                     Some nd.id
                   else None)
          in
          if outs = [] then fail path "value owed upwards on no output port"
          else if
            not
              (value_reaches sub ~value
                 ~start:[ List.nth du i ]
                 ~goal:(fun y -> List.mem y outs))
          then fail path "value does not reach its output port"
    done;
    (* Sideways at the LCA. *)
    (match sub_at (prefix du lca) with
    | None -> ()
    | Some sub ->
        if
          not
            (value_reaches sub ~value
               ~start:[ List.nth du lca ]
               ~goal:(fun y -> y = List.nth dv lca))
        then fail (prefix du lca) "no path between the two cluster sets")
    ;
    (* Descend on the consumer's side. *)
    for i = lca + 1 to depth - 1 do
      let path = prefix dv i in
      match sub_at path with
      | None -> ()
      | Some sub ->
          let pg = sub.Hierarchy.pg in
          let ins = in_ports_holding pg value in
          if ins = [] then fail path "value enters on no input port"
          else if
            not
              (value_reaches sub ~value ~start:ins ~goal:(fun y ->
                   y = List.nth dv i))
          then fail path "value does not reach the consumer's cluster set"
    done;
    !errors
  end

let check_models t =
  List.concat_map
    (fun (sub : Hierarchy.subresult) ->
      match Machine_model.validate sub.Hierarchy.model with
      | Ok () -> []
      | Error m ->
          [
            Printf.sprintf "model at [%s]: %s"
              (String.concat "," (List.map string_of_int sub.Hierarchy.path))
              m;
          ])
    (Hierarchy.subresults t)

let check_out_ports t =
  List.concat_map
    (fun (sub : Hierarchy.subresult) ->
      let pg = sub.Hierarchy.pg in
      let flow = sub.Hierarchy.flow in
      List.concat_map
        (fun (nd : Pattern_graph.node) ->
          let values = Pattern_graph.port_values nd in
          if values = [] then []
          else
            match Copy_flow.Frozen.real_in_neighbors flow nd.id with
            | [ src ] ->
                List.filter_map
                  (fun v ->
                    if
                      List.mem v (Copy_flow.Frozen.copies flow ~src ~dst:nd.id)
                      && wire_confirms sub ~src ~dst:nd.id ~value:v
                    then None
                    else
                      Some
                        (Printf.sprintf "out port %d at [%s]: value %%%d missing"
                           nd.id
                           (String.concat ","
                              (List.map string_of_int sub.Hierarchy.path))
                           v))
                  values
            | [] ->
                [
                  Printf.sprintf "out port %d at [%s]: no source" nd.id
                    (String.concat ","
                       (List.map string_of_int sub.Hierarchy.path));
                ]
            | _ :: _ :: _ ->
                [
                  Printf.sprintf "out port %d at [%s]: several sources" nd.id
                    (String.concat ","
                       (List.map string_of_int sub.Hierarchy.path));
                ])
        (Pattern_graph.out_ports pg))
    (Hierarchy.subresults t)

let check t =
  let placement_errors =
    let total = Dspfabric.total_cns t.Hierarchy.fabric in
    Array.to_list t.Hierarchy.cn_of_instr
    |> List.mapi (fun g cn -> (g, cn))
    |> List.filter_map (fun (g, cn) ->
           if cn < 0 || cn >= total then
             Some (Printf.sprintf "instruction %%%d has no valid CN" g)
           else None)
  in
  let edge_errors =
    Array.to_list (Ddg.edges t.Hierarchy.ddg)
    |> List.concat_map (fun e -> check_edge t e)
  in
  let errors =
    placement_errors @ check_models t @ check_out_ports t @ edge_errors
  in
  match errors with [] -> Ok () | es -> Error es

let is_legal t = match check t with Ok () -> true | Error _ -> false
