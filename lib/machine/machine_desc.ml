type level = { fanout : int; mux_cap : int }

type t = {
  name : string;
  levels : level array;
  cn_in_wires : int;
  dma_ports : int;
  tables : Resource.t array option;
      (* [None] means every CN is [Resource.cn]; [make] normalises an
         all-uniform explicit table to [None] so the two spellings are
         structurally equal *)
}

let depth t = Array.length t.levels

let total_cns_of levels =
  Array.fold_left (fun acc l -> acc * l.fanout) 1 levels

let total_cns t = total_cns_of t.levels

let make ?tables ~name ~levels ~cn_in_wires ~dma_ports () =
  if Array.length levels = 0 then
    invalid_arg "Machine_desc.make: need at least one level";
  Array.iter
    (fun l ->
      if l.fanout < 1 then
        invalid_arg "Machine_desc.make: fan-out must be >= 1";
      if l.mux_cap < 1 then
        invalid_arg "Machine_desc.make: MUX capacities must be positive")
    levels;
  if cn_in_wires <= 0 || dma_ports <= 0 then
    invalid_arg "Machine_desc.make: cn_in_wires and dma_ports must be positive";
  let cns = total_cns_of levels in
  let tables =
    match tables with
    | None -> None
    | Some a ->
        if Array.length a <> cns then
          invalid_arg
            (Printf.sprintf
               "Machine_desc.make: table has %d entries for %d CNs"
               (Array.length a) cns);
        Array.iter
          (fun (r : Resource.t) ->
            if r.Resource.alus < 0 || r.Resource.ags < 0 then
              invalid_arg "Machine_desc.make: negative resource entry";
            if r.Resource.alus = 0 && r.Resource.ags = 0 then
              invalid_arg "Machine_desc.make: a CN needs at least one unit")
          a;
        if Array.for_all (fun r -> Resource.equal r Resource.cn) a then None
        else Some (Array.copy a)
  in
  { name; levels = Array.copy levels; cn_in_wires; dma_ports; tables }

let name t = t.name

let equal a b = a = b

let levels t = Array.copy t.levels

let cn_in_wires t = t.cn_in_wires

let dma_ports t = t.dma_ports

let is_uniform t = t.tables = None

let cn_table t i =
  if i < 0 || i >= total_cns t then
    invalid_arg "Machine_desc.cn_table: CN index out of range";
  match t.tables with None -> Resource.cn | Some a -> a.(i)

let tables t =
  match t.tables with
  | Some a -> Array.copy a
  | None -> Array.make (total_cns t) Resource.cn

let with_tables ?name:name' t tbl =
  make ~tables:tbl
    ~name:(Option.value ~default:t.name name')
    ~levels:t.levels ~cn_in_wires:t.cn_in_wires ~dma_ports:t.dma_ports ()

(* Injective rendering: the name is length-prefixed (it may contain any
   byte), everything after it is integers behind fixed delimiters, so
   distinct descriptions can never print the same id. *)
let id t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf
    (Printf.sprintf "machine[%d:%s" (String.length t.name) t.name);
  Buffer.add_string buf ";levels=";
  Array.iteri
    (fun i l ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%d:%d" l.fanout l.mux_cap))
    t.levels;
  Buffer.add_string buf
    (Printf.sprintf ";cn_in=%d;dma=%d;tables=" t.cn_in_wires t.dma_ports);
  (match t.tables with
  | None -> Buffer.add_string buf "uniform"
  | Some a ->
      Array.iteri
        (fun i (r : Resource.t) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "%d.%d" r.Resource.alus r.Resource.ags))
        a);
  Buffer.add_char buf ']';
  Buffer.contents buf

type level_view = {
  level : int;
  children : int;
  cns_per_child : int;
  mux_capacity : int;
  out_capacity : int;
  max_in_ports : int;
  is_leaf : bool;
}

let level_view t ~level =
  if level < 0 || level >= depth t then
    invalid_arg "Machine_desc.level_view: level out of range";
  let is_leaf = level = depth t - 1 in
  let cns_per_child = ref 1 in
  for l = level + 1 to depth t - 1 do
    cns_per_child := !cns_per_child * t.levels.(l).fanout
  done;
  {
    level;
    children = t.levels.(level).fanout;
    cns_per_child = !cns_per_child;
    mux_capacity = (if is_leaf then t.cn_in_wires else t.levels.(level).mux_cap);
    out_capacity = (if is_leaf then 1 else t.levels.(level).mux_cap);
    max_in_ports = (if is_leaf then t.levels.(level).mux_cap else max_int);
    is_leaf;
  }

let cn_path t cn =
  let rec go cn level acc =
    if level < 0 then acc
    else
      let f = t.levels.(level).fanout in
      go (cn / f) (level - 1) ((cn mod f) :: acc)
  in
  go cn (depth t - 1) []

let cn_of_path t path =
  let rec go acc level = function
    | [] when level = depth t -> acc
    | [] -> go (acc * t.levels.(level).fanout) (level + 1) []
    | i :: rest ->
        if level = depth t || i < 0 || i >= t.levels.(level).fanout then
          invalid_arg "Machine_desc.cn_of_path: path too deep or out of range";
        go ((acc * t.levels.(level).fanout) + i) (level + 1) rest
  in
  go 0 0 path

(* Strip one path digit off both CNs per step, leaf level first, until
   they name the same cluster: no path is built. *)
let shared_depth t a b =
  let rec go a b level =
    if a = b || level = 0 then level
    else
      let f = t.levels.(level - 1).fanout in
      go (a / f) (b / f) (level - 1)
  in
  go a b (depth t)

let child_capacities t ~path =
  let level = List.length path in
  if level >= depth t then
    invalid_arg "Machine_desc.child_capacities: path too deep";
  let view = level_view t ~level in
  let base = cn_of_path t path in
  match t.tables with
  | None ->
      Array.make view.children (Resource.scale view.cns_per_child Resource.cn)
  | Some a ->
      Array.init view.children (fun c ->
          let acc = ref Resource.zero in
          for j = 0 to view.cns_per_child - 1 do
            acc := Resource.add !acc a.(base + (c * view.cns_per_child) + j)
          done;
          !acc)

let resources t =
  let cns = total_cns t in
  match t.tables with
  | None ->
      {
        Hca_ddg.Mii.alu_slots = cns;
        ag_slots = cns;
        issue_slots = cns;
        dma_ports = t.dma_ports;
      }
  | Some a ->
      let alus = ref 0 and ags = ref 0 and issue = ref 0 in
      Array.iter
        (fun (r : Resource.t) ->
          alus := !alus + r.Resource.alus;
          ags := !ags + r.Resource.ags;
          issue := !issue + Resource.issue_slots r)
        a;
      {
        Hca_ddg.Mii.alu_slots = !alus;
        ag_slots = !ags;
        issue_slots = !issue;
        dma_ports = t.dma_ports;
      }

let wire_cost t =
  let clusters = ref 1 and cost = ref 0 in
  Array.iteri
    (fun l lv ->
      clusters := !clusters * lv.fanout;
      let out = if l = depth t - 1 then 1 else lv.mux_cap in
      cost := !cost + (!clusters * out))
    t.levels;
  !cost

let pp ppf t =
  Format.fprintf ppf "%s: %d levels, fan-outs [%s], dma=%d%s" t.name (depth t)
    (String.concat ";"
       (Array.to_list (Array.map (fun l -> string_of_int l.fanout) t.levels)))
    t.dma_ports
    (if is_uniform t then "" else " (heterogeneous)")
