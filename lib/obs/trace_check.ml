type json = Hca_util.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse = Hca_util.Json.parse

type stats = {
  events : int;
  tracks : (int * int) list;
  span_names : (string * int) list;
}

exception Invalid of string

let validate s =
  let module J = Hca_util.Json in
  let bad fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt in
  let count tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let sorted tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  match parse s with
  | Error e -> Error ("not valid JSON: " ^ e)
  | Ok (Obj _ as top) -> (
      match J.member "traceEvents" top with
      | Some (Arr evs) -> (
          (* Per-tid begin stacks; every E must close the innermost B of
             its track, and every track must end with an empty stack. *)
          let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
          let spans = Hashtbl.create 8 and names = Hashtbl.create 8 in
          let check i ev =
            (match ev with Obj _ -> () | _ -> bad "event %d: not an object" i);
            let field k f = Option.bind (J.member k ev) f in
            let tid =
              Option.fold ~none:(-1) ~some:int_of_float (field "tid" J.num)
            in
            let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
            let has_ts = field "ts" J.num <> None in
            match field "ph" J.str with
            | None -> bad "event %d: no \"ph\"" i
            | Some "B" -> (
                match field "name" J.str with
                | None -> bad "event %d: B without name" i
                | Some _ when not has_ts -> bad "event %d: B without ts" i
                | Some name -> Hashtbl.replace stacks tid (name :: stack))
            | Some "E" -> (
                if not has_ts then bad "event %d: E without ts" i;
                match stack with
                | [] -> bad "event %d: E with no open span on tid %d" i tid
                | name :: rest ->
                    Hashtbl.replace stacks tid rest;
                    count spans tid;
                    count names name)
            | Some ("i" | "I" | "C" | "M") -> ()
            | Some other -> bad "event %d: unknown phase %S" i other
          in
          match
            List.iteri check evs;
            Hashtbl.iter
              (fun tid st ->
                if st <> [] then
                  bad "tid %d: %d span(s) never closed" tid (List.length st))
              stacks
          with
          | () ->
              Ok
                {
                  events = List.length evs;
                  tracks = sorted spans;
                  span_names = sorted names;
                }
          | exception Invalid e -> Error e)
      | _ -> Error "no \"traceEvents\" array")
  | Ok _ -> Error "top level is not an object"

let validate_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> validate s
  | exception Sys_error e -> Error e
