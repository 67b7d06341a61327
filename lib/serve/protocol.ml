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

(* An optional field is absent or of its type: one of the wrong type is
   an error naming the field, never silently dropped.  [path] prefixes
   the name of a field nested in an object ("config."). *)
let optional conv what ?(path = "") j k =
  match Json.member k j with
  | None -> Ok None
  | Some v -> (
      match conv v with
      | Some _ as x -> Ok x
      | None -> Error (Printf.sprintf "\"%s%s\" must be %s" path k what))

let opt_int = optional Json.int "an integer"

let opt_bool = optional Json.bool "a boolean"

let opt_str = optional Json.str "a string"

let required_id j =
  match opt_int j "id" with
  | Ok (Some id) when id >= 0 -> Ok id
  | Ok (Some _) -> Error "\"id\" must be non-negative"
  | Ok None -> Error "missing integer field \"id\""
  | Error _ as e -> e

let source_of j =
  let* named = opt_str j "kernel" in
  let* inline = opt_str j "ddg" in
  let* seed = opt_int j "gen_seed" in
  let* max_size = opt_int j "gen_max_size" in
  match (named, inline, seed) with
  | Some k, None, None -> Ok (Named k)
  | None, Some d, None -> Ok (Inline d)
  | None, None, Some seed -> Ok (Gen { seed; max_size })
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
      let dim k = Option.bind (Json.member k m) Json.int in
      match (dim "n", dim "m", dim "k") with
      | Some n, Some mm, Some k when n > 0 && mm > 0 && k > 0 ->
          Ok (Some (n, mm, k))
      | _ -> Error "\"machine\" must be {\"n\":int,\"m\":int,\"k\":int} > 0")

let submit_of j =
  let* source = source_of j in
  let* machine = machine_of j in
  let* machine_desc = opt_str j "machine_desc" in
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
  let* beam = opt_int ~path:"config." config "beam" in
  let* candidates = opt_int ~path:"config." config "candidates" in
  let* spread = opt_bool ~path:"config." config "spread" in
  let* fanin_cap = opt_int ~path:"config." config "fanin_cap" in
  let* priority = opt_int j "priority" in
  let* memo = opt_bool j "memo" in
  let* trace = opt_bool j "trace" in
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
         priority = Option.value ~default:0 priority;
         deadline_s;
         memo = Option.value ~default:true memo;
         trace = Option.value ~default:false trace;
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
      let* wait = opt_bool j "wait" in
      Ok (Result { id; wait = Option.value ~default:false wait })
  | Some "cancel" ->
      let* id = required_id j in
      Ok (Cancel id)
  | Some "stats" -> Ok Stats
  | Some "metrics" -> (
      let* format = opt_str j "format" in
      match format with
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
