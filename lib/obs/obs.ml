module Json = Hca_util.Json

type event = {
  kind : [ `Begin | `End | `Instant | `Count | `Sample ];
  name : string;
  ts : float;
  value : float;
  args : (string * string) list;
}

let dummy = { kind = `Instant; name = ""; ts = 0.; value = 0.; args = [] }

(* One sink per domain, single writer (the owning domain), created on
   first use and registered once.  Three destinations share it: the
   unbounded trace buffer (the whole-process profiler), a fixed-size
   flight ring (always-on post-mortem), and an optional per-request
   capture; [push] fans one timestamped event out to whichever are
   armed.  Readers only run at quiescent points (trace buffer) or
   tolerate best-effort snapshots (ring, see {!Ring.dump}), so the
   arrays need no per-event synchronisation. *)
type sink = {
  dom : int;
  mutable evs : event array;  (* trace buffer *)
  mutable len : int;
  mutable ring : event array;  (* flight ring; [|" "|] length 0 = off *)
  mutable ring_pos : int;  (* total ring writes, monotonic *)
  mutable cap : event array;  (* per-request capture *)
  mutable cap_len : int;
  mutable capturing : bool;
}

let reg_mu = Mutex.create ()

let registry : sink list ref = ref []

let epoch_v = ref 0.

let epoch () = !epoch_v

(* Which destinations are armed.  [armed] is the single hot-path guard
   ([enabled ()]): true when {e any} destination wants events.  All
   transitions happen under [reg_mu] and re-derive [armed], so it never
   goes stale. *)
let trace_on = Atomic.make false

let ring_cap = Atomic.make 0

let captures = Atomic.make 0

let armed = Atomic.make false

let enabled () = Atomic.get armed

let rearm () =
  Atomic.set armed
    (Atomic.get trace_on || Atomic.get ring_cap > 0 || Atomic.get captures > 0)

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          dom = (Domain.self () :> int);
          evs = Array.make 1024 dummy;
          len = 0;
          ring = [||];
          ring_pos = 0;
          cap = [||];
          cap_len = 0;
          capturing = false;
        }
      in
      Mutex.lock reg_mu;
      registry := b :: !registry;
      Mutex.unlock reg_mu;
      b)

let push kind name value args =
  let b = Domain.DLS.get buf_key in
  let tr = Atomic.get trace_on in
  let cp = b.capturing in
  let rc = Atomic.get ring_cap in
  (* The ring keeps only span structure and instants: recording counter
     and histogram traffic in a besieged hot loop is exactly the
     overhead the always-on recorder must not have. *)
  let rg =
    rc > 0 && (match kind with `Count | `Sample -> false | _ -> true)
  in
  if tr || cp || rg then begin
    let e = { kind; name; ts = Hca_util.Clock.now (); value; args } in
    if tr then begin
      if b.len = Array.length b.evs then begin
        let evs = Array.make (2 * b.len) dummy in
        Array.blit b.evs 0 evs 0 b.len;
        b.evs <- evs
      end;
      b.evs.(b.len) <- e;
      b.len <- b.len + 1
    end;
    if cp then begin
      if b.cap_len = Array.length b.cap then begin
        let cap = Array.make (max 1024 (2 * b.cap_len)) dummy in
        Array.blit b.cap 0 cap 0 b.cap_len;
        b.cap <- cap
      end;
      b.cap.(b.cap_len) <- e;
      b.cap_len <- b.cap_len + 1
    end;
    if rg then begin
      if Array.length b.ring <> rc then begin
        b.ring <- Array.make rc dummy;
        b.ring_pos <- 0
      end;
      b.ring.(b.ring_pos mod rc) <- e;
      b.ring_pos <- b.ring_pos + 1
    end
  end

let enable () =
  if not (Atomic.get trace_on) then begin
    Mutex.lock reg_mu;
    if !epoch_v = 0. then epoch_v := Hca_util.Clock.now ();
    Atomic.set trace_on true;
    rearm ();
    Mutex.unlock reg_mu
  end

let disable () =
  Mutex.lock reg_mu;
  Atomic.set trace_on false;
  rearm ();
  Mutex.unlock reg_mu

let reset () =
  Mutex.lock reg_mu;
  List.iter
    (fun b ->
      b.len <- 0;
      b.ring_pos <- 0)
    !registry;
  epoch_v := Hca_util.Clock.now ();
  Mutex.unlock reg_mu

let span ?(args = []) name f =
  if not (Atomic.get armed) then f ()
  else begin
    push `Begin name 0. args;
    match f () with
    | v ->
        push `End "" 0. [];
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        push `End "" 0. [];
        Printexc.raise_with_backtrace e bt
  end

let instant ?(args = []) name =
  if Atomic.get armed then push `Instant name 0. args

(* Counters and samples never reach the ring, so with only the flight
   recorder armed they must cost one extra load + a domain-local read,
   not a clock read and a store. *)
let counting () =
  Atomic.get trace_on || (Domain.DLS.get buf_key).capturing

let count name d =
  if Atomic.get armed && counting () then
    push `Count name (float_of_int d) []

let observe name v =
  if Atomic.get armed && counting () then push `Sample name v []

let events () =
  Mutex.lock reg_mu;
  let bufs = !registry in
  Mutex.unlock reg_mu;
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (List.map
       (fun b -> (b.dom, List.init b.len (fun i -> b.evs.(i))))
       bufs)

(* Ring overwrites and capture boundaries can orphan [`End]s or leave
   [`Begin]s open; rebalance so every exported stream nests: drop ends
   at depth zero, close whatever is still open at the last timestamp. *)
let balance evs =
  let kept = ref [] and depth = ref 0 and last = ref 0. in
  List.iter
    (fun e ->
      if e.ts > !last then last := e.ts;
      match e.kind with
      | `End ->
          if !depth > 0 then begin
            decr depth;
            kept := e :: !kept
          end
      | `Begin ->
          incr depth;
          kept := e :: !kept
      | _ -> kept := e :: !kept)
    evs;
  let closer = { dummy with kind = `End; ts = !last } in
  List.rev !kept @ List.init !depth (fun _ -> closer)

(* ------------------------------------------------------------------ *)
(* Structured logging                                                  *)

module Log = struct
  type level = Debug | Info | Warn | Error

  type field = S of string | I of int | F of float | B of bool

  let level_name = function
    | Debug -> "debug"
    | Info -> "info"
    | Warn -> "warn"
    | Error -> "error"

  let level_of_string = function
    | "debug" -> Some Debug
    | "info" -> Some Info
    | "warn" | "warning" -> Some Warn
    | "error" -> Some Error
    | _ -> None

  let rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

  (* One mutex serialises sink swaps and line emission, so lines from
     worker domains never interleave mid-record. *)
  let mu = Mutex.create ()

  let sink : out_channel option ref = ref None

  let owns_sink = ref false

  let threshold = ref Info

  let last_ts = ref 0.

  let close_sink_locked () =
    (match !sink with
    | Some oc when !owns_sink -> ( try close_out oc with Sys_error _ -> ())
    | _ -> ());
    sink := None;
    owns_sink := false

  let off () =
    Mutex.lock mu;
    close_sink_locked ();
    Mutex.unlock mu

  let to_stderr () =
    Mutex.lock mu;
    close_sink_locked ();
    sink := Some stderr;
    Mutex.unlock mu

  let to_file path =
    let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
    Mutex.lock mu;
    close_sink_locked ();
    sink := Some oc;
    owns_sink := true;
    Mutex.unlock mu

  let set_level l =
    Mutex.lock mu;
    threshold := l;
    Mutex.unlock mu

  (* Unlocked fast-path check for callers that build fields eagerly;
     [log] re-checks under the lock. *)
  let active l = !sink <> None && rank l >= rank !threshold

  let add_field b = function
    | S s -> Json.add_str b s
    | I i -> Buffer.add_string b (string_of_int i)
    | F f -> Json.add_num b f
    | B v -> Buffer.add_string b (string_of_bool v)

  let log level ?req event fields =
    Mutex.lock mu;
    (match !sink with
    | Some oc when rank level >= rank !threshold ->
        (* Wall clock, clamped monotone so the stream always sorts. *)
        let now = Hca_util.Clock.now () in
        let ts = if now > !last_ts then now else !last_ts in
        last_ts := ts;
        let b = Buffer.create 160 in
        Buffer.add_string b "{\"ts\":";
        Json.add_num b ts;
        Printf.bprintf b ",\"level\":\"%s\",\"event\":" (level_name level);
        Json.add_str b event;
        (match req with
        | Some r -> Printf.bprintf b ",\"req\":%d" r
        | None -> ());
        List.iter
          (fun (k, v) ->
            Buffer.add_char b ',';
            Json.add_str b k;
            Buffer.add_char b ':';
            add_field b v)
          fields;
        Buffer.add_string b "}\n";
        output_string oc (Buffer.contents b);
        flush oc
    | _ -> ());
    Mutex.unlock mu

  let debug ?req event fields = log Debug ?req event fields

  let info ?req event fields = log Info ?req event fields

  let warn ?req event fields = log Warn ?req event fields

  let error ?req event fields = log Error ?req event fields
end

(* ------------------------------------------------------------------ *)
(* Live metrics registry                                               *)

module Registry = struct
  type histogram = {
    h_mu : Mutex.t;
    bounds : float array;  (* ascending upper bounds; +Inf implicit *)
    counts : int array;  (* length = bounds + 1 (overflow last) *)
    mutable sum : float;
  }

  type metric =
    | Counter of int Atomic.t
    | Gauge of float Atomic.t
    | Histogram of histogram

  let mu = Mutex.create ()

  let tbl : (string, metric) Hashtbl.t = Hashtbl.create 64

  (* Latency-flavoured default buckets (milliseconds). *)
  let default_buckets =
    [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.; 10000. |]

  let clear () =
    Mutex.lock mu;
    Hashtbl.reset tbl;
    Mutex.unlock mu

  (* Lock order: [mu] before [h_mu]; creation is rare, mutation is an
     atomic op (counters/gauges) or a per-metric lock (histograms). *)
  let get_or_make name make =
    Mutex.lock mu;
    let m =
      match Hashtbl.find_opt tbl name with
      | Some m -> m
      | None ->
          let m = make () in
          Hashtbl.add tbl name m;
          m
    in
    Mutex.unlock mu;
    m

  let inc ?(by = 1) name =
    match get_or_make name (fun () -> Counter (Atomic.make 0)) with
    | Counter c -> ignore (Atomic.fetch_and_add c by)
    | Gauge _ | Histogram _ -> ()

  let set name v =
    match get_or_make name (fun () -> Gauge (Atomic.make 0.)) with
    | Gauge g -> Atomic.set g v
    | Counter _ | Histogram _ -> ()

  let observe ?buckets name v =
    match
      get_or_make name (fun () ->
          let bounds = Option.value ~default:default_buckets buckets in
          Histogram
            {
              h_mu = Mutex.create ();
              bounds;
              counts = Array.make (Array.length bounds + 1) 0;
              sum = 0.;
            })
    with
    | Histogram h ->
        Mutex.lock h.h_mu;
        let n = Array.length h.bounds in
        let i = ref 0 in
        while !i < n && v > h.bounds.(!i) do
          incr i
        done;
        h.counts.(!i) <- h.counts.(!i) + 1;
        h.sum <- h.sum +. v;
        Mutex.unlock h.h_mu
    | Counter _ | Gauge _ -> ()

  let counter name =
    Mutex.lock mu;
    let v =
      match Hashtbl.find_opt tbl name with
      | Some (Counter c) -> Atomic.get c
      | _ -> 0
    in
    Mutex.unlock mu;
    v

  type hist_view = {
    le : float array;  (** finite upper bounds *)
    buckets : int array;  (** per-bucket (not cumulative); +1 overflow *)
    count : int;
    sum : float;
  }

  type snapshot = {
    counters : (string * int) list;
    gauges : (string * float) list;
    hists : (string * hist_view) list;
  }

  let snapshot () =
    Mutex.lock mu;
    let cs = ref [] and gs = ref [] and hs = ref [] in
    Hashtbl.iter
      (fun name m ->
        match m with
        | Counter c -> cs := (name, Atomic.get c) :: !cs
        | Gauge g -> gs := (name, Atomic.get g) :: !gs
        | Histogram h ->
            Mutex.lock h.h_mu;
            let view =
              {
                le = Array.copy h.bounds;
                buckets = Array.copy h.counts;
                count = Array.fold_left ( + ) 0 h.counts;
                sum = h.sum;
              }
            in
            Mutex.unlock h.h_mu;
            hs := (name, view) :: !hs)
      tbl;
    Mutex.unlock mu;
    {
      counters = List.sort compare !cs;
      gauges = List.sort compare !gs;
      hists = List.sort compare !hs;
    }

  (* Bucket-interpolated quantile estimate: exact enough for a
     dashboard, no sample retention. *)
  let quantile hv q =
    if hv.count = 0 then 0.
    else begin
      let target = q *. float_of_int hv.count in
      let n = Array.length hv.buckets in
      let rec go i acc lower =
        if i >= n then lower
        else
          let c = hv.buckets.(i) in
          let upper =
            if i < Array.length hv.le then hv.le.(i) else lower
          in
          if c > 0 && float_of_int (acc + c) >= target then
            lower
            +. (upper -. lower)
               *. ((target -. float_of_int acc) /. float_of_int c)
          else go (i + 1) (acc + c) upper
      in
      go 0 0 0.
    end

  (* "base{labels}" -> (base, Some "labels"); labels ride inside metric
     names so call sites stay one string. *)
  let split_name name =
    match String.index_opt name '{' with
    | Some i
      when String.length name > 1 && name.[String.length name - 1] = '}' ->
        ( String.sub name 0 i,
          Some (String.sub name (i + 1) (String.length name - i - 2)) )
    | _ -> (name, None)

  let num v = Printf.sprintf "%g" v

  let to_prometheus () =
    let s = snapshot () in
    let b = Buffer.create 2048 in
    let typed = Hashtbl.create 16 in
    let type_line base kind =
      if not (Hashtbl.mem typed base) then begin
        Hashtbl.add typed base ();
        Printf.bprintf b "# TYPE %s %s\n" base kind
      end
    in
    List.iter
      (fun (name, v) ->
        let base, _ = split_name name in
        type_line base "counter";
        Printf.bprintf b "%s %d\n" name v)
      s.counters;
    List.iter
      (fun (name, v) ->
        let base, _ = split_name name in
        type_line base "gauge";
        Printf.bprintf b "%s %s\n" name (num v))
      s.gauges;
    List.iter
      (fun (name, hv) ->
        let base, labels = split_name name in
        type_line base "histogram";
        let bucket le_s =
          match labels with
          | None -> Printf.sprintf "%s_bucket{le=\"%s\"}" base le_s
          | Some l -> Printf.sprintf "%s_bucket{%s,le=\"%s\"}" base l le_s
        in
        let suffixed sfx =
          match labels with
          | None -> Printf.sprintf "%s_%s" base sfx
          | Some l -> Printf.sprintf "%s_%s{%s}" base sfx l
        in
        let acc = ref 0 in
        Array.iteri
          (fun i c ->
            if i < Array.length hv.le then begin
              acc := !acc + c;
              Printf.bprintf b "%s %d\n" (bucket (num hv.le.(i))) !acc
            end)
          hv.buckets;
        Printf.bprintf b "%s %d\n" (bucket "+Inf") hv.count;
        Printf.bprintf b "%s %s\n" (suffixed "sum") (num hv.sum);
        Printf.bprintf b "%s %d\n" (suffixed "count") hv.count)
      s.hists;
    Buffer.contents b

  let to_json () =
    let s = snapshot () in
    let int i = Json.Num (float_of_int i) in
    let hist hv =
      let acc = ref 0 in
      Json.Obj
        [
          ("count", int hv.count);
          ("sum", Json.Num hv.sum);
          ( "buckets",
            Json.Arr
              (List.mapi
                 (fun i le ->
                   acc := !acc + hv.buckets.(i);
                   Json.Arr [ Json.Num le; int !acc ])
                 (Array.to_list hv.le)) );
        ]
    in
    Json.Obj
      [
        ("counters", Json.Obj (List.map (fun (k, v) -> (k, int v)) s.counters));
        ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) s.gauges));
        ("histograms", Json.Obj (List.map (fun (k, hv) -> (k, hist hv)) s.hists));
      ]
end

(* ------------------------------------------------------------------ *)

module Summary = struct
  type phase = {
    name : string;
    calls : int;
    total_s : float;
    self_s : float;
    max_s : float;
  }

  type hist = {
    h_name : string;
    samples : int;
    mean : float;
    min_v : float;
    p50 : float;
    p90 : float;
    p95 : float;
    p99 : float;
    max_v : float;
  }

  type t = {
    phases : phase list;
    counters : (string * int) list;
    histograms : hist list;
  }

  let percentile sorted q =
    let n = Array.length sorted in
    if n = 0 then 0.
    else sorted.(int_of_float ((q *. float_of_int (n - 1)) +. 0.5))

  let collect () =
    let phases : (string, phase) Hashtbl.t = Hashtbl.create 16 in
    let counters : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (_dom, evs) ->
        (* Per-domain span stack: (name, start, child-time accumulator).
           Streams are single-writer, so each nests on its own. *)
        let stack = ref [] in
        List.iter
          (fun e ->
            match e.kind with
            | `Begin -> stack := (e.name, e.ts, ref 0.) :: !stack
            | `End -> (
                match !stack with
                | [] -> () (* unmatched end: drop *)
                | (name, t0, child) :: rest ->
                    stack := rest;
                    let dur = max 0. (e.ts -. t0) in
                    (match rest with
                    | (_, _, pc) :: _ -> pc := !pc +. dur
                    | [] -> ());
                    let prev =
                      Option.value
                        ~default:
                          {
                            name;
                            calls = 0;
                            total_s = 0.;
                            self_s = 0.;
                            max_s = 0.;
                          }
                        (Hashtbl.find_opt phases name)
                    in
                    Hashtbl.replace phases name
                      {
                        prev with
                        calls = prev.calls + 1;
                        total_s = prev.total_s +. dur;
                        self_s = prev.self_s +. max 0. (dur -. !child);
                        max_s = max prev.max_s dur;
                      })
            | `Count ->
                let d = int_of_float e.value in
                Hashtbl.replace counters e.name
                  (d + Option.value ~default:0 (Hashtbl.find_opt counters e.name))
            | `Sample -> (
                match Hashtbl.find_opt samples e.name with
                | Some l -> l := e.value :: !l
                | None -> Hashtbl.add samples e.name (ref [ e.value ]))
            | `Instant -> ())
          evs)
      (events ());
    let phase_list =
      Hashtbl.fold (fun _ p acc -> p :: acc) phases []
      |> List.sort (fun a b ->
             compare (b.total_s, a.name) (a.total_s, b.name))
    in
    let counter_list =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []
      |> List.sort compare
    in
    let hist_list =
      Hashtbl.fold
        (fun h_name l acc ->
          let a = Array.of_list !l in
          Array.sort compare a;
          let n = Array.length a in
          let sum = Array.fold_left ( +. ) 0. a in
          {
            h_name;
            samples = n;
            mean = (if n = 0 then 0. else sum /. float_of_int n);
            min_v = (if n = 0 then 0. else a.(0));
            p50 = percentile a 0.5;
            p90 = percentile a 0.9;
            p95 = percentile a 0.95;
            p99 = percentile a 0.99;
            max_v = (if n = 0 then 0. else a.(n - 1));
          }
          :: acc)
        samples []
      |> List.sort (fun a b -> compare a.h_name b.h_name)
    in
    { phases = phase_list; counters = counter_list; histograms = hist_list }

  let counter t name =
    Option.value ~default:0 (List.assoc_opt name t.counters)

  let ms v = Printf.sprintf "%.3f" (1e3 *. v)

  let print t =
    let open Hca_util.Tabular in
    if t.phases <> [] then begin
      let tab =
        create
          [
            ("phase", Left); ("calls", Right); ("total ms", Right);
            ("self ms", Right); ("avg ms", Right); ("max ms", Right);
          ]
      in
      List.iter
        (fun p ->
          add_row tab
            [
              p.name;
              string_of_int p.calls;
              ms p.total_s;
              ms p.self_s;
              ms (p.total_s /. float_of_int (max 1 p.calls));
              ms p.max_s;
            ])
        t.phases;
      print tab
    end;
    if t.counters <> [] then begin
      let tab = create [ ("counter", Left); ("value", Right) ] in
      List.iter
        (fun (k, v) -> add_row tab [ k; string_of_int v ])
        t.counters;
      print_newline ();
      print tab
    end;
    if t.histograms <> [] then begin
      let tab =
        create
          [
            ("histogram", Left); ("samples", Right); ("min", Right);
            ("p50", Right); ("p90", Right); ("p95", Right); ("p99", Right);
            ("max", Right); ("mean", Right);
          ]
      in
      let num v = Printf.sprintf "%.1f" v in
      List.iter
        (fun h ->
          add_row tab
            [
              h.h_name;
              string_of_int h.samples;
              num h.min_v;
              num h.p50;
              num h.p90;
              num h.p95;
              num h.p99;
              num h.max_v;
              num h.mean;
            ])
        t.histograms;
      print_newline ();
      print tab
    end
end

module Trace = struct
  (* Streamed straight into one buffer with no per-event [Json.t]:
     traces of a long session reach hundreds of MB. *)
  let add_args b args =
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Json.add_str b k;
        Buffer.add_char b ':';
        Json.add_str b v)
      args;
    Buffer.add_char b '}'

  let chrome_of_streams ?(meta = []) ~epoch streams =
    let b = Buffer.create 65536 in
    Buffer.add_string b "{\"traceEvents\":[";
    let first = ref true in
    let sep () = if !first then first := false else Buffer.add_char b ',' in
    (* Opens one event up to its timestamp: microseconds since [epoch],
       kept to the nanosecond. *)
    let event ?name fields dom ts =
      sep ();
      Buffer.add_char b '{';
      Option.iter
        (fun n ->
          Buffer.add_string b "\"name\":";
          Json.add_str b n;
          Buffer.add_char b ',')
        name;
      Printf.bprintf b "%s,\"pid\":1,\"tid\":%d,\"ts\":" fields dom;
      Json.add_num b (Float.round (1e9 *. (ts -. epoch)) /. 1e3)
    in
    let args = function
      | [] -> Buffer.add_char b '}'
      | a ->
          Buffer.add_string b ",\"args\":";
          add_args b a;
          Buffer.add_char b '}'
    in
    let counter dom e v =
      event ~name:e.name {|"ph":"C"|} dom e.ts;
      Buffer.add_string b ",\"args\":{";
      Json.add_str b e.name;
      Buffer.add_char b ':';
      Json.add_num b v;
      Buffer.add_string b "}}"
    in
    List.iter
      (fun (dom, evs) ->
        sep ();
        Printf.bprintf b
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"domain-%d\"}}"
          dom dom;
        (* Cumulative counter series per (domain, name) so Perfetto can
           chart rising totals; histogram samples stay raw gauges. *)
        let totals : (string, float) Hashtbl.t = Hashtbl.create 8 in
        List.iter
          (fun e ->
            match e.kind with
            | `Begin ->
                event ~name:e.name {|"cat":"hca","ph":"B"|} dom e.ts;
                args e.args
            | `End ->
                event {|"ph":"E"|} dom e.ts;
                Buffer.add_char b '}'
            | `Instant ->
                event ~name:e.name {|"cat":"hca","ph":"i","s":"t"|} dom e.ts;
                args e.args
            | `Count ->
                let t =
                  e.value
                  +. Option.value ~default:0. (Hashtbl.find_opt totals e.name)
                in
                Hashtbl.replace totals e.name t;
                counter dom e t
            | `Sample -> counter dom e e.value)
          evs)
      streams;
    Buffer.add_string b "],\"displayTimeUnit\":\"ms\",\"otherData\":";
    add_args b (("tool", "hca") :: meta);
    Buffer.add_char b '}';
    Buffer.contents b

  let to_chrome_json ?meta () =
    chrome_of_streams ?meta ~epoch:(epoch ()) (events ())

  let write ?meta path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_chrome_json ?meta ()))

  let stream_epoch streams =
    List.fold_left
      (fun acc (_, evs) ->
        List.fold_left
          (fun acc e -> if acc = 0. || e.ts < acc then e.ts else acc)
          acc evs)
      0. streams

  let write_streams ?meta path streams =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc
          (chrome_of_streams ?meta ~epoch:(stream_epoch streams) streams))
end

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)

module Ring = struct
  let arm ?(capacity = 4096) () =
    Mutex.lock reg_mu;
    if !epoch_v = 0. then epoch_v := Hca_util.Clock.now ();
    Atomic.set ring_cap (max 16 capacity);
    rearm ();
    Mutex.unlock reg_mu

  let disarm () =
    Mutex.lock reg_mu;
    Atomic.set ring_cap 0;
    rearm ();
    Mutex.unlock reg_mu

  let armed () = Atomic.get ring_cap > 0

  let capacity () = Atomic.get ring_cap

  (* Best-effort post-mortem snapshot.  Other domains may still be
     writing their rings: slot reads are atomic (boxed events), so the
     worst race is an out-of-order or missing event near the write
     head — [balance] keeps the dump structurally valid regardless. *)
  let dump () =
    Mutex.lock reg_mu;
    let sinks = !registry in
    Mutex.unlock reg_mu;
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (List.filter_map
         (fun s ->
           let cap = Array.length s.ring in
           let pos = s.ring_pos in
           if cap = 0 || pos = 0 then None
           else begin
             let n = min pos cap in
             let first = pos - n in
             let evs =
               List.init n (fun i -> s.ring.((first + i) mod cap))
             in
             let evs = List.filter (fun e -> e != dummy) evs in
             match balance evs with [] -> None | evs -> Some (s.dom, evs)
           end)
         sinks)

  let write ?(meta = []) path =
    Trace.write_streams ~meta:(("recorder", "flight") :: meta) path (dump ())
end

(* ------------------------------------------------------------------ *)
(* Per-request capture                                                 *)

module Capture = struct
  let start () =
    let b = Domain.DLS.get buf_key in
    if not b.capturing then begin
      Mutex.lock reg_mu;
      if !epoch_v = 0. then epoch_v := Hca_util.Clock.now ();
      Atomic.incr captures;
      rearm ();
      Mutex.unlock reg_mu;
      b.cap_len <- 0;
      b.capturing <- true
    end

  let active () = (Domain.DLS.get buf_key).capturing

  let stop () =
    let b = Domain.DLS.get buf_key in
    if not b.capturing then []
    else begin
      b.capturing <- false;
      Mutex.lock reg_mu;
      Atomic.decr captures;
      rearm ();
      Mutex.unlock reg_mu;
      let evs = List.init b.cap_len (fun i -> b.cap.(i)) in
      b.cap_len <- 0;
      balance evs
    end

  let write ?(meta = []) path evs =
    Trace.write_streams
      ~meta:(("recorder", "request") :: meta)
      path
      [ (0, evs) ]
end
