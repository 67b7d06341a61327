module Json = Hca_util.Json

type source =
  | Named of string
  | Inline of string
  | Gen of { seed : int; max_size : int option }

type submit = {
  source : source;
  machine : (int * int * int) option;
  machine_desc : string option;
  beam : int option;
  candidates : int option;
  spread : bool option;
  fanin_cap : int option;
  priority : int;
  deadline_s : float option;
  memo : bool;
  trace : bool;
}

type metrics_format = Json_metrics | Prometheus

type request =
  | Submit of submit
  | Status of int
  | Result of { id : int; wait : bool }
  | Cancel of int
  | Stats
  | Metrics of metrics_format
  | Ping
  | Shutdown

let ( let* ) = Result.bind

let field_int j k = Option.bind (Json.member k j) Json.int

let field_bool j k = Option.bind (Json.member k j) Json.bool

let required_id j =
  match field_int j "id" with
  | Some id when id >= 0 -> Ok id
  | Some _ -> Error "\"id\" must be non-negative"
  | None -> Error "missing integer field \"id\""

let source_of j =
  let named = Option.bind (Json.member "kernel" j) Json.str in
  let inline = Option.bind (Json.member "ddg" j) Json.str in
  let seed = field_int j "gen_seed" in
  match (named, inline, seed) with
  | Some k, None, None -> Ok (Named k)
  | None, Some d, None -> Ok (Inline d)
  | None, None, Some seed ->
      Ok (Gen { seed; max_size = field_int j "gen_max_size" })
  | None, None, None ->
      Error "submit needs a kernel source: \"kernel\", \"ddg\" or \"gen_seed\""
  | _ ->
      Error
        "submit takes exactly one kernel source (\"kernel\", \"ddg\" or \
         \"gen_seed\")"

let machine_of j =
  match Json.member "machine" j with
  | None -> Ok None
  | Some m -> (
      match (field_int m "n", field_int m "m", field_int m "k") with
      | Some n, Some mm, Some k when n > 0 && mm > 0 && k > 0 ->
          Ok (Some (n, mm, k))
      | _ -> Error "\"machine\" must be {\"n\":int,\"m\":int,\"k\":int} > 0")

let machine_desc_of j =
  match Json.member "machine_desc" j with
  | None -> Ok None
  | Some v -> (
      match Json.str v with
      | Some text -> Ok (Some text)
      | None -> Error "\"machine_desc\" must be a string (.machine text)")

let submit_of j =
  let* source = source_of j in
  let* machine = machine_of j in
  let* machine_desc = machine_desc_of j in
  let* () =
    match (machine, machine_desc) with
    | Some _, Some _ ->
        Error "submit takes at most one of \"machine\" and \"machine_desc\""
    | _ -> Ok ()
  in
  let* config =
    match Json.member "config" j with
    | None -> Ok (Json.Obj [])
    | Some (Json.Obj _ as c) -> Ok c
    | Some _ -> Error "\"config\" must be an object"
  in
  (* A config field is optional, but one of the wrong type is an error,
     never silently dropped. *)
  let setting conv what k =
    match Option.map conv (Json.member k config) with
    | None -> Ok None
    | Some (Some _ as v) -> Ok v
    | Some None -> Error (Printf.sprintf "\"config.%s\" must be %s" k what)
  in
  let* beam = setting Json.int "an integer" "beam" in
  let* candidates = setting Json.int "an integer" "candidates" in
  let* spread = setting Json.bool "a boolean" "spread" in
  let* fanin_cap = setting Json.int "an integer" "fanin_cap" in
  let* deadline_s =
    match Json.member "deadline_s" j with
    | None -> Ok None
    | Some v -> (
        match Json.num v with
        | Some d when d >= 0. -> Ok (Some d)
        | _ -> Error "\"deadline_s\" must be a non-negative number")
  in
  Ok
    (Submit
       {
         source;
         machine;
         machine_desc;
         beam;
         candidates;
         spread;
         fanin_cap;
         priority = Option.value ~default:0 (field_int j "priority");
         deadline_s;
         memo = Option.value ~default:true (field_bool j "memo");
         trace = Option.value ~default:false (field_bool j "trace");
       })

let request_of_line line =
  let* j =
    Result.map_error (fun e -> "parse error: " ^ e) (Json.parse line)
  in
  let* () = match j with Json.Obj _ -> Ok () | _ -> Error "request must be a JSON object" in
  match Option.bind (Json.member "verb" j) Json.str with
  | None -> Error "missing string field \"verb\""
  | Some "submit" -> submit_of j
  | Some "status" ->
      let* id = required_id j in
      Ok (Status id)
  | Some "result" ->
      let* id = required_id j in
      Ok (Result { id; wait = Option.value ~default:false (field_bool j "wait") })
  | Some "cancel" ->
      let* id = required_id j in
      Ok (Cancel id)
  | Some "stats" -> Ok Stats
  | Some "metrics" -> (
      match Option.bind (Json.member "format" j) Json.str with
      | None | Some "json" -> Ok (Metrics Json_metrics)
      | Some "prometheus" -> Ok (Metrics Prometheus)
      | Some f ->
          Error
            (Printf.sprintf
               "unknown metrics format %S (want \"json\" or \"prometheus\")" f))
  | Some "ping" -> Ok Ping
  | Some "shutdown" -> Ok Shutdown
  | Some v -> Error (Printf.sprintf "unknown verb %S" v)

let error_response msg =
  Json.to_string (Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ])

let ok_response fields =
  Json.to_string (Json.Obj (("ok", Json.Bool true) :: fields))
