open Hca_machine

type result = {
  model : Machine_model.t;
  child_ilis : Ili.t array;
  max_wire_load : int;
}

type wire_option =
  | Reuse of Machine_model.wire_id  (* sinks already cover the dests *)
  | Extend of Machine_model.wire_id * Pattern_graph.node_id list
  | Fresh  (* allocate a new wire and connect all dests *)

let ( let* ) = Result.bind

let port_wire (nd : Pattern_graph.node) =
  match nd.kind with
  | Pattern_graph.In_port { wire; _ } | Pattern_graph.Out_port { wire; _ } ->
      wire
  | Pattern_graph.Regular -> invalid_arg "Mapper.port_wire: regular node"

(* Pre-allocate the glue between the outer and the inner level: one
   input slot per (father wire, consuming child) pair, one output wire
   per father wire this level owes values to. *)
let preallocate model problem flow =
  let pg = Problem.pg problem in
  let* () =
    List.fold_left
      (fun acc (nd : Pattern_graph.node) ->
        let* () = acc in
        let label = port_wire nd in
        List.fold_left
          (fun acc dst ->
            let* () = acc in
            Result.map_error
              (fun m -> Printf.sprintf "external-in w%d -> child %d: %s" label dst m)
              (Machine_model.reserve_external_in model ~dst ~label))
          (Ok ())
          (Copy_flow.real_out_neighbors flow nd.id))
      (Ok ())
      (Pattern_graph.in_ports pg)
  in
  List.fold_left
    (fun acc (nd : Pattern_graph.node) ->
      let* () = acc in
      let label = port_wire nd in
      let values = Pattern_graph.port_values nd in
      match Copy_flow.real_in_neighbors flow nd.id with
      | [] ->
          if values = [] then Ok ()
          else Error (Printf.sprintf "output wire w%d has values but no source" label)
      | [ src ] -> (
          match Machine_model.reserve_external_out model ~src ~label with
          | Error m ->
              Error (Printf.sprintf "external-out w%d from child %d: %s" label src m)
          | Ok wire ->
              List.iter (fun v -> Machine_model.put_value model ~wire v) values;
              Ok ())
      | _ :: _ :: _ ->
          Error
            (Printf.sprintf "output wire w%d fed by several clusters" label))
    (Ok ())
    (Pattern_graph.out_ports pg)

(* The input slots of every destination are a budget shared by all the
   sources that must reach it: [remaining.(d)] counts the (src, d) pairs
   not yet carried by any wire.  Feasibility is guaranteed because the
   PG in-neighbour constraint matches the input-wire capacity, so a
   wire choice may only consume a non-budgeted slot when strictly more
   slots than unwired pairs are left. *)
type budget = {
  remaining : int array;
  mutable unwired : (int * int) list;  (* (src, dst) pairs *)
}

let budget_of flow ~children =
  let remaining = Array.make children 0 in
  let unwired = ref [] in
  for src = 0 to children - 1 do
    List.iter
      (fun dst ->
        if dst < children then begin
          remaining.(dst) <- remaining.(dst) + 1;
          unwired := (src, dst) :: !unwired
        end)
      (Copy_flow.real_out_neighbors flow src)
  done;
  { remaining; unwired = !unwired }

let mark_wired budget src dst =
  if List.mem (src, dst) budget.unwired then begin
    budget.unwired <- List.filter (fun p -> p <> (src, dst)) budget.unwired;
    budget.remaining.(dst) <- budget.remaining.(dst) - 1
  end

(* Can destination [d] afford one more input connection from [src]?
   Budgeted pairs always can (their slot is reserved); extra balancing
   connections only when slots exceed the outstanding pairs. *)
let slot_ok model budget ~src ~d =
  let free = Machine_model.free_in_slots model d in
  if List.mem (src, d) budget.unwired then free > 0
  else free > budget.remaining.(d)

(* Copy distribution for one source cluster.  Values are handled in
   decreasing fan-out order so that broadcasts grab whole wires first;
   each value picks the cheapest of reuse / sink extension / fresh wire.
   In spread mode (set levels, plentiful slots downstream) cost is
   (resulting load, extra slots): copies spread over all the wires, as
   in Fig. 9.  In consolidate mode (the level feeding the leaf quads,
   where every wire costs one of the CNs' two input slots) the ranking
   flips to (extra slots, resulting load). *)
let distribute model budget ~consolidate ~wire_cap ~color ~wire_color ~src
    ~value_dests =
  let load w = List.length (Machine_model.wire_values model w) in
  let covers w dests =
    let sinks = Machine_model.wire_sinks model w in
    List.for_all (fun d -> List.mem d sinks) dests
  in
  let missing w dests =
    let sinks = Machine_model.wire_sinks model w in
    List.filter (fun d -> not (List.mem d sinks)) dests
  in
  (* A wire's payload funnels through one downstream sub-cluster, so
     only values whose producers plausibly co-locate (same colour) may
     share a wire. *)
  let color_ok w value =
    match Hashtbl.find_opt wire_color w with
    | None -> true
    | Some c -> c = color value
  in
  let set_color w value =
    if not (Hashtbl.mem wire_color w) then
      Hashtbl.replace wire_color w (color value)
  in
  let rank ~load ~slots = if consolidate then (slots, load) else (load, slots) in
  let place (value, dests) =
    let wires = Machine_model.used_out_wires model src in
    let collect ~strict_color ~capped =
      let colored w = (not strict_color) || color_ok w value in
      let within_cap w = (not capped) || load w < wire_cap in
      let reuse_options =
        List.filter_map
          (fun w ->
            if covers w dests && within_cap w && colored w then
              Some (rank ~load:(load w + 1) ~slots:0, Reuse w)
            else None)
          wires
      in
      let fresh_option =
        if
          Machine_model.free_out_wires model src > 0
          && List.for_all (fun d -> slot_ok model budget ~src ~d) dests
        then [ (rank ~load:1 ~slots:(List.length dests), Fresh) ]
        else []
      in
      let extend_options =
        List.filter_map
          (fun w ->
            let miss = missing w dests in
            if
              miss <> [] && within_cap w && colored w
              && List.for_all (fun d -> slot_ok model budget ~src ~d) miss
            then
              Some (rank ~load:(load w + 1) ~slots:(List.length miss), Extend (w, miss))
            else None)
          wires
      in
      List.sort compare (reuse_options @ fresh_option @ extend_options)
    in
    (* Colour discipline and the payload cap are preferences: an
       overloaded or mixed wire (downstream forwards, extra pressure)
       beats failing the level. *)
    let options =
      match collect ~strict_color:true ~capped:true with
      | [] -> (
          match collect ~strict_color:false ~capped:true with
          | [] -> collect ~strict_color:false ~capped:false
          | options -> options)
      | options -> options
    in
    let connect_all w ds =
      List.fold_left
        (fun acc d ->
          let* () = acc in
          let* () = Machine_model.connect model ~wire:w ~dst:d in
          mark_wired budget src d;
          Ok ())
        (Ok ()) ds
    in
    match options with
    | [] ->
        let free_ins =
          List.init (Machine_model.nodes model) (fun d ->
              Printf.sprintf "%d(ext%d,rem%d)"
                (Machine_model.free_in_slots model d)
                (List.length (Machine_model.external_ins model d))
                budget.remaining.(d))
        in
        Error
          (Printf.sprintf
             "no wire for value %%%d from cluster %d (dests [%s], %d free \
              out wires, free in slots [%s], unwired pairs [%s])"
             value src
             (String.concat "," (List.map string_of_int dests))
             (Machine_model.free_out_wires model src)
             (String.concat "," free_ins)
             (String.concat ";"
                (List.map
                   (fun (a, b) -> Printf.sprintf "%d->%d" a b)
                   budget.unwired)))
    | (_, choice) :: _ -> (
        match choice with
        | Reuse w ->
            Machine_model.put_value model ~wire:w value;
            set_color w value;
            List.iter (fun d -> mark_wired budget src d) dests;
            Ok ()
        | Extend (w, miss) ->
            let* () = connect_all w miss in
            Machine_model.put_value model ~wire:w value;
            set_color w value;
            List.iter (fun d -> mark_wired budget src d) dests;
            Ok ()
        | Fresh -> (
            match Machine_model.alloc_out_wire model src with
            | None -> Error "out wire vanished"
            | Some w ->
                let* () = connect_all w dests in
                Machine_model.put_value model ~wire:w value;
                set_color w value;
                Ok ()))
  in
  List.fold_left
    (fun acc vd ->
      let* () = acc in
      place vd)
    (Ok ()) value_dests

let collect_value_dests flow ~src ~children =
  let per_value = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun dst ->
      if dst < children then
        List.iter
          (fun v ->
            (match Hashtbl.find_opt per_value v with
            | None -> order := v :: !order
            | Some _ -> ());
            let cur = Option.value ~default:[] (Hashtbl.find_opt per_value v) in
            if not (List.mem dst cur) then Hashtbl.replace per_value v (dst :: cur))
          (Copy_flow.copies flow ~src ~dst))
    (Copy_flow.real_out_neighbors flow src);
  List.rev_map (fun v -> (v, List.rev (Hashtbl.find per_value v))) !order
  |> List.sort (fun (v1, d1) (v2, d2) ->
         compare (-List.length d1, v1) (-List.length d2, v2))

let build_child_ilis model problem children =
  let pg = Problem.pg problem in
  let father_payload =
    let table = Hashtbl.create 8 in
    List.iter
      (fun (nd : Pattern_graph.node) ->
        Hashtbl.replace table (port_wire nd) (Pattern_graph.port_values nd))
      (Pattern_graph.in_ports pg);
    table
  in
  Array.init children (fun i ->
      let ext_inputs =
        List.map
          (fun label ->
            Option.value ~default:[] (Hashtbl.find_opt father_payload label))
          (Machine_model.external_ins model i)
      in
      let intra_inputs = List.map snd (Machine_model.incoming model i) in
      let outputs =
        List.filter_map
          (fun w ->
            match Machine_model.wire_values model w with
            | [] -> None
            | values -> Some values)
          (Machine_model.used_out_wires model i)
      in
      let label vs = List.mapi (fun idx v -> (idx, v)) vs in
      { Ili.inputs = label (ext_inputs @ intra_inputs); outputs = label outputs })

let map_traced ~consolidate ~wire_cap ~color ~problem ~state ~in_capacity
    ~out_capacity =
  if wire_cap < 1 then invalid_arg "Mapper.map: wire_cap must be >= 1";
  let pg = Problem.pg problem in
  let children = List.length (Pattern_graph.regular_nodes pg) in
  let flow = State.flow state in
  let model = Machine_model.create ~nodes:children ~in_capacity ~out_capacity in
  let* () = preallocate model problem flow in
  let budget = budget_of flow ~children in
  let wire_color = Hashtbl.create 16 in
  let* () =
    List.fold_left
      (fun acc src ->
        let* () = acc in
        let value_dests = collect_value_dests flow ~src ~children in
        distribute model budget ~consolidate ~wire_cap ~color ~wire_color ~src
          ~value_dests)
      (Ok ())
      (List.init children (fun i -> i))
  in
  let* () = Machine_model.validate model in
  let child_ilis = build_child_ilis model problem children in
  Ok { model; child_ilis; max_wire_load = Machine_model.max_wire_load model }

let map ?(consolidate = false) ?(wire_cap = max_int)
    ?(color = fun (_ : Hca_ddg.Instr.id) -> 0) ~problem ~state ~in_capacity
    ~out_capacity () =
  Hca_obs.Obs.span "mapper.map"
    ~args:[ ("problem", Problem.name problem) ]
    (fun () ->
      map_traced ~consolidate ~wire_cap ~color ~problem ~state ~in_capacity
        ~out_capacity)
