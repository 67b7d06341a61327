(** Stable top-k selection over a scored batch.

    The SEE used to materialise each frontier with a full [List.sort]
    only to keep its first [beam_width] elements; selection does the
    same in O(n·k) with a k-slot insertion buffer the caller owns, so
    a beam step allocates nothing to rank its children. *)

val smallest_into : k:int -> float array -> len:int -> into:int array -> int
(** [smallest_into ~k keys ~len ~into] writes to [into.(0..r-1)] the
    indices [i < len] whose [keys.(i)] are the [r] smallest, keys
    ascending, ties resolved towards the smaller index, and returns
    [r] — at most [k], fewer when fewer keys are finite.  Entries with
    a non-finite key ([nan]/[infinity] — the batch scorer's infeasible
    sentinel) are skipped entirely.  The finite indices come out
    element for element as the first [k] of
    [List.stable_sort (fun i j -> compare keys.(i) keys.(j))] over
    them.  [into] needs [min k len] slots. *)
