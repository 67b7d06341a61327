(** Graph algorithms over a {!Ddg.t}.

    All functions treat the [distance = 0] subgraph as the acyclic
    intra-iteration structure (guaranteed by {!Ddg.Builder.freeze});
    loop-carried edges are only considered where stated. *)

val topological_order : Ddg.t -> Instr.id array
(** Order of the intra-iteration DAG: every [distance = 0] edge goes
    from an earlier to a later position. Deterministic (Kahn with a
    smallest-id tie-break). *)

val depth : Ddg.t -> int array
(** [depth.(i)]: longest latency-weighted path from any source to [i]
    over intra-iteration edges, i.e. the earliest issue cycle of [i] on
    an unbounded machine (ASAP). *)

val height : Ddg.t -> int array
(** Longest latency-weighted path from [i] to any sink (intra-iteration
    edges): the classic criticality measure. *)

val critical_path : Ddg.t -> int
(** Length in cycles of the longest intra-iteration path, i.e. the
    schedule length of one iteration on an unbounded machine. *)

val slack : Ddg.t -> int array
(** [slack.(i) = critical_path - depth.(i) - height.(i)]; zero for nodes
    on a critical path. *)

val sccs : Ddg.t -> Instr.id list array
(** Strongly connected components of the full graph (all distances),
    Tarjan's algorithm, in reverse topological order of the condensation.
    Components of size one without a self-loop are trivial. *)

val nontrivial_sccs : Ddg.t -> Instr.id list array
(** Only the components that contain a circuit (size > 1, or a
    loop-carried self-edge): the recurrences of the loop. *)
