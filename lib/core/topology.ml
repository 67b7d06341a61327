open Hca_ddg
open Hca_machine

type entry = {
  path : int list;
  owner : int;
  wire : int;
  sinks : int list;
  uplink : int option;
  values : Instr.id list;
}

type t = {
  machine : string;
  kernel : string;
  entries : entry list;
}

let of_result (res : Hierarchy.t) =
  let entries =
    List.concat_map
      (fun (sub : Hierarchy.subresult) ->
        let model = sub.Hierarchy.model in
        List.concat_map
          (fun owner ->
            let uplinks = Machine_model.external_outs model owner in
            List.filter_map
              (fun w ->
                let values = Machine_model.wire_values model w in
                let sinks = Machine_model.wire_sinks model w in
                let uplink =
                  List.find_map
                    (fun (label, w') -> if w' = w then Some label else None)
                    uplinks
                in
                if values = [] && sinks = [] && uplink = None then None
                else
                  Some
                    {
                      path = sub.Hierarchy.path;
                      owner;
                      wire = w - (owner * Machine_model.out_capacity model);
                      sinks;
                      uplink;
                      values;
                    })
              (Machine_model.used_out_wires model owner))
          (List.init (Machine_model.nodes model) (fun i -> i)))
      (Hierarchy.subresults res)
  in
  {
    machine = Dspfabric.name res.Hierarchy.fabric;
    kernel = Ddg.name res.Hierarchy.ddg;
    entries;
  }

let wire_count t = List.length t.entries

let select_count t =
  List.fold_left
    (fun acc e ->
      acc + List.length e.sinks + match e.uplink with Some _ -> 1 | None -> 0)
    0 t.entries

let entry_to_string e =
  Printf.sprintf "at %s: c%d.w%d -> [%s]%s carrying [%s]"
    (match e.path with
    | [] -> "top"
    | p -> String.concat "," (List.map string_of_int p))
    e.owner e.wire
    (String.concat "," (List.map string_of_int e.sinks))
    (match e.uplink with
    | Some l -> Printf.sprintf " up w%d" l
    | None -> "")
    (String.concat "," (List.map (fun v -> "%" ^ string_of_int v) e.values))

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "reconfiguration program: %s on %s (%d wires, %d selects)\n"
       t.kernel t.machine (wire_count t) (select_count t));
  List.iter
    (fun e ->
      Buffer.add_string buf ("  " ^ entry_to_string e ^ "\n"))
    t.entries;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)
