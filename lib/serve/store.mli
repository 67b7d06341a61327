(** The persistent cross-request memo store: the subproblem cache of
    {!Hca_core.Hierarchy} serialised to disk, so warm caches survive
    daemon restarts.

    Format: four text lines — the magic, the invalidation stamp, the
    payload's length in bytes and its MD5 in hex — followed by the
    payload, the [Marshal]led {!Hca_core.Hierarchy.snapshot}.  The
    stamp ({!default_stamp}) ties the file to the exact sources and
    store format that wrote it: memo entries embed solver-internal
    structures whose meaning drifts with any code change, so a stale
    stamp means the whole file is discarded ([Ok None]), never read.
    The length and the digest are checked before the payload is
    unmarshalled, so a truncated or bit-flipped file is an [Error],
    never a crash.

    Writes are atomic (temp file, [fsync], [rename]), so a crash
    mid-flush leaves the previous store intact. *)

val format_version : string
(** Part of the stamp, so a layout change is spelled out beside the
    source digest. *)

val default_stamp : unit -> string
(** ["hca-store:<digest>:<format_version>"], where the digest covers
    every source file under [lib/] and is taken when the library is
    built: two builds of different sources never share a stamp, and one
    build has the same stamp in every working directory.  Computing it
    starts no process and reads no file. *)

val save :
  path:string ->
  stamp:string ->
  Hca_core.Hierarchy.snapshot ->
  (int, string) result
(** Atomically replace [path] with the snapshot; returns the number of
    entries written. *)

val load :
  path:string ->
  stamp:string ->
  (Hca_core.Hierarchy.snapshot option, string) result
(** [Ok None] when the file does not exist or carries a different
    stamp (stale); [Error] on a file that exists but cannot be a store
    (bad magic, a length or digest that does not match the payload, a
    payload that does not unmarshal).  Never raises. *)
