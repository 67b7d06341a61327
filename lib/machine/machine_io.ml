(* The [.machine] format follows Ddg_io's conventions: whitespace-
   separated records, '#' comments, names escaped so that
   [parse ∘ print = id] holds exactly, and errors that name the
   offending line. *)

let escape = Hca_ddg.Ddg_io.escape_name

let unescape = Hca_ddg.Ddg_io.unescape_name

let to_string (m : Machine_desc.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("machine " ^ escape (Machine_desc.name m) ^ "\n");
  Array.iter
    (fun (l : Machine_desc.level) ->
      Buffer.add_string buf
        (Printf.sprintf "level %d %d\n" l.Machine_desc.fanout
           l.Machine_desc.mux_cap))
    (Machine_desc.levels m);
  Buffer.add_string buf
    (Printf.sprintf "cn_in_wires %d\n" (Machine_desc.cn_in_wires m));
  Buffer.add_string buf
    (Printf.sprintf "dma_ports %d\n" (Machine_desc.dma_ports m));
  if not (Machine_desc.is_uniform m) then begin
    (* Maximal runs of equal tables; the default table prints nothing. *)
    let tables = Machine_desc.tables m in
    let n = Array.length tables in
    let i = ref 0 in
    while !i < n do
      let j = ref !i in
      while !j + 1 < n && tables.(!j + 1) = tables.(!i) do
        incr j
      done;
      let (r : Resource.t) = tables.(!i) in
      if not (Resource.equal r Resource.cn) then
        Buffer.add_string buf
          (if !i = !j then
             Printf.sprintf "cn %d %d %d\n" !i r.Resource.alus r.Resource.ags
           else
             Printf.sprintf "cn %d-%d %d %d\n" !i !j r.Resource.alus
               r.Resource.ags);
      i := !j + 1
    done
  end;
  Buffer.contents buf

exception Fail of string

let err lineno fmt =
  Printf.ksprintf (fun m -> raise (Fail (Printf.sprintf "line %d: %s" lineno m))) fmt

let int_field lineno what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> err lineno "%s must be an integer, got %S" what s

let range_field lineno s =
  match String.index_opt s '-' with
  | None ->
      let v = int_field lineno "cn index" s in
      (v, v)
  | Some i ->
      let lo = int_field lineno "cn range start" (String.sub s 0 i) in
      let hi =
        int_field lineno "cn range end"
          (String.sub s (i + 1) (String.length s - i - 1))
      in
      (lo, hi)

let of_string text =
  let lines = String.split_on_char '\n' text in
  let name = ref None in
  let levels = ref [] in
  let cn_in = ref None in
  let dma = ref None in
  (* (lineno, lo, hi, table), in file order; ranges are validated
     against the level structure the moment they are read, so the error
     position is exact. *)
  let overrides = ref [] in
  let total_cns () =
    List.fold_left (fun acc (l : Machine_desc.level) -> acc * l.fanout) 1
      (List.rev !levels)
  in
  try
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        let line = String.trim line in
        if line = "" || line.[0] = '#' then ()
        else
        match
          String.split_on_char ' ' line |> List.filter (fun t -> t <> "")
        with
        | [] -> ()
        | "machine" :: rest ->
            if !name <> None then err lineno "duplicate machine header";
            if rest = [] then err lineno "machine header needs a name";
            name := Some (unescape (String.concat " " rest))
        | tok :: _ when !name = None ->
            err lineno "expected the machine header, got %S" tok
        | [ "level"; f; c ] ->
            if !overrides <> [] then
              err lineno "level records must precede cn records";
            let fanout = int_field lineno "fan-out" f in
            let mux_cap = int_field lineno "MUX capacity" c in
            if fanout < 1 then err lineno "fan-out must be >= 1";
            if mux_cap < 1 then err lineno "MUX capacity must be >= 1";
            levels := { Machine_desc.fanout; mux_cap } :: !levels
        | [ "cn_in_wires"; v ] ->
            if !cn_in <> None then err lineno "duplicate cn_in_wires";
            let v = int_field lineno "cn_in_wires" v in
            if v < 1 then err lineno "cn_in_wires must be >= 1";
            cn_in := Some v
        | [ "dma_ports"; v ] ->
            if !dma <> None then err lineno "duplicate dma_ports";
            let v = int_field lineno "dma_ports" v in
            if v < 1 then err lineno "dma_ports must be >= 1";
            dma := Some v
        | [ "cn"; range; a; g ] ->
            if !levels = [] then err lineno "cn record before any level";
            let lo, hi = range_field lineno range in
            let cns = total_cns () in
            if lo < 0 || hi < lo || hi >= cns then
              err lineno "cn range %d-%d outside [0, %d)" lo hi cns;
            let alus = int_field lineno "alus" a in
            let ags = int_field lineno "ags" g in
            if alus < 0 || ags < 0 then
              err lineno "resource entries must be >= 0";
            if alus = 0 && ags = 0 then
              err lineno "a CN needs at least one unit";
            overrides := (lo, hi, { Resource.alus; ags }) :: !overrides
        | tok :: _ -> err lineno "unknown record %S" tok)
      lines;
    let name =
      match !name with
      | Some n -> n
      | None -> raise (Fail "line 1: missing machine header")
    in
    if !levels = [] then raise (Fail "missing level records");
    let cn_in_wires =
      match !cn_in with
      | Some v -> v
      | None -> raise (Fail "missing cn_in_wires record")
    in
    let dma_ports =
      match !dma with
      | Some v -> v
      | None -> raise (Fail "missing dma_ports record")
    in
    let levels = Array.of_list (List.rev !levels) in
    let tables =
      match !overrides with
      | [] -> None
      | ovs ->
          let cns =
            Array.fold_left
              (fun acc (l : Machine_desc.level) -> acc * l.fanout)
              1 levels
          in
          let a = Array.make cns Resource.cn in
          List.iter
            (fun (lo, hi, r) ->
              for i = lo to hi do
                a.(i) <- r
              done)
            (List.rev ovs);
          Some a
    in
    match
      Machine_desc.make ?tables ~name ~levels ~cn_in_wires ~dma_ports ()
    with
    | m -> Ok m
    | exception Invalid_argument e -> Error e
  with Fail e -> Error e

let read_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> of_string text
  | exception Sys_error e -> Error e
