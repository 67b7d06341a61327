(** The repository's one JSON codec: every JSON reader and writer —
    the compile service's wire protocol, bench / dse / loadtest NDJSON
    rows and [bench_guard], the metrics registry, the structured log,
    Chrome traces and [Trace_check] — goes through this module.

    The repo deliberately carries no JSON dependency, so this is a
    complete little parser and printer.  Numbers are [float]s; integral
    values print without a fraction, so ids survive a round trip
    textually unchanged, and every other finite number prints in the
    shortest form that reads back to the same double.  Strings are byte
    strings: bytes >= 0x80 pass through unescaped (UTF-8 in, UTF-8
    out), and [parse (to_string v) = Ok v] for any [v] whose numbers
    are finite. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** One JSON value, surrounding whitespace allowed; anything trailing
    is an error (a protocol or NDJSON line holds exactly one value).
    Never raises; error messages carry the byte offset. *)

val to_string : t -> string
(** Compact single-line rendering (no whitespace between tokens, and
    newlines inside strings are escaped).  [Num nan] and infinities
    print as [null]. *)

val fixed : int -> float -> t
(** [fixed d x] is [Num x] rounded to [d] decimals, so measured times
    in rows print as [0.125] rather than with seventeen digits. *)

val row : experiment:string -> kernel:string -> (string * t) list -> string
(** One NDJSON record as bench, [hca dse] and [hca loadtest] write it
    and [bench_guard] keys it: [{"experiment":..,"kernel":..,<fields>}],
    without the trailing newline. *)

(** {1 Streaming} — for writers that append to a [Buffer] without
    building a tree (Chrome traces reach hundreds of MB). *)

val add_str : Buffer.t -> string -> unit
(** The string as a quoted, escaped JSON string. *)

val add_num : Buffer.t -> float -> unit
(** The number as {!to_string} prints [Num]. *)

(** {1 Typed accessors} — all total, [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on anything else or a missing key. *)

val str : t -> string option

val num : t -> float option

val int : t -> int option
(** [Num] with integral value. *)

val bool : t -> bool option
