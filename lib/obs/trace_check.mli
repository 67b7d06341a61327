(** Validation of the Chrome trace-event JSON {!Obs.Trace} emits, used
    by the [hca tracecheck] CLI and the test suite.  Parsing is
    {!Hca_util.Json}'s; this module only checks the trace-event
    structure, for any trace-event file, not just our own output. *)

type json = Hca_util.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list
(** Re-export of the codec's value type. *)

val parse : string -> (json, string) result
(** {!Hca_util.Json.parse}. *)

type stats = {
  events : int;  (** total entries in ["traceEvents"] *)
  tracks : (int * int) list;  (** completed span count per tid *)
  span_names : (string * int) list;  (** completed span count per name *)
}

val validate : string -> (stats, string) result
(** Checks that [s] parses, has a ["traceEvents"] array whose entries
    are objects with a ["ph"] string (and ["ts"]/["tid"] where the
    phase requires them), and that every track's "B"/"E" events are
    balanced and properly nested. *)

val validate_file : string -> (stats, string) result
