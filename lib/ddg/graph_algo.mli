(** Graph algorithms over dependence graphs: one implementation, shared
    by the kernel {!Ddg.t} (below) and the cluster-assignment
    subproblems of [Hca_core.Problem] (through {!Make}).

    All functions treat the [distance = 0] subgraph as the acyclic
    intra-iteration structure (guaranteed by {!Ddg.Builder.freeze});
    loop-carried edges are only considered where stated. *)

(** What the algorithms read of a graph: dense node ids
    [0 .. size - 1] and the out-edges of each node (all distances),
    with their latency and iteration distance. *)
module type GRAPH = sig
  type t
  type edge
  val size : t -> int
  val succs : t -> int -> edge list
  val dst : edge -> int
  val latency : edge -> int
  val distance : edge -> int
end

module type S = sig
  type graph

  val topological_order : graph -> int array
  (** Order of the intra-iteration DAG: every [distance = 0] edge goes
      from an earlier to a later position.  Deterministic (Kahn with a
      smallest-id tie-break). *)

  val depth : graph -> int array
  (** [depth.(i)]: longest latency-weighted path from any source to [i]
      over intra-iteration edges, i.e. the earliest issue cycle of [i]
      on an unbounded machine (ASAP). *)

  val height : graph -> int array
  (** Longest latency-weighted path from [i] to any sink
      (intra-iteration edges): the classic criticality measure. *)

  val critical_path : graph -> int
  (** Length in cycles of the longest intra-iteration path, i.e. the
      schedule length of one iteration on an unbounded machine. *)

  val nontrivial_sccs : graph -> int list array
  (** The strongly connected components of the full graph (all
      distances) that contain a circuit (size > 1, or a loop-carried
      self-edge): the recurrences of the loop.  Tarjan's algorithm, in
      reverse topological order of the condensation. *)
end

module Make (G : GRAPH) : S with type graph := G.t

include S with type graph := Ddg.t
