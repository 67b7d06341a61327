(** Run-identification stamps, so bench NDJSON rows and trace files can
    be correlated after the fact. *)

val git_describe : unit -> string
(** [git describe --always --dirty] of the working directory's
    checkout, computed once; ["unknown"] when git or the repository is
    unavailable.  A label for bench rows and trace metadata only: it
    names the checkout, not the build. *)

val hash : 'a -> string
(** Stable-in-process structural fingerprint as 8 hex digits, for
    tagging rows with the configuration they were produced under. *)
