(** Data Dependency Graph of one loop kernel.

    Nodes are instructions; a directed edge [(src, dst)] means [dst]
    consumes the value produced by [src].  Every edge carries

    - a [latency]: cycles between the issue of [src] and the earliest
      issue of [dst] when both sit on the same cluster (inter-cluster
      copies add their own delay later);
    - a [distance] (the classic modulo-scheduling omega): how many loop
      iterations separate producer and consumer.  [distance = 0] is an
      intra-iteration dependence; [distance > 0] is loop-carried and is
      what creates recurrence circuits bounding the initiation interval.

    The graph restricted to [distance = 0] edges is acyclic (checked by
    {!Builder.freeze}). *)

type edge = {
  src : Instr.id;
  dst : Instr.id;
  latency : int;
  distance : int;
}

type t

(** {1 Construction} *)

module Builder : sig
  type graph = t

  type t

  val create : ?name:string -> unit -> t

  val add_instr : t -> ?name:string -> Opcode.t -> Instr.id
  (** Appends an instruction and returns its id. *)

  val add_dep : ?distance:int -> ?latency:int -> t -> src:Instr.id -> dst:Instr.id -> unit
  (** Adds a dependence edge.  [latency] defaults to the opcode latency
      of [src]; [distance] defaults to [0].
      @raise Invalid_argument on unknown ids, negative distance, or a
      [distance = 0] self-loop. *)

  val freeze : t -> graph
  (** Seals the graph.
      @raise Invalid_argument if the [distance = 0] subgraph has a
      cycle (such a loop body could never be scheduled). *)
end

(** {1 Accessors} *)

val name : t -> string

val with_name : t -> string -> t
(** Same graph under a different name, with the same {!content_id}.
    The name is a label only: two different graphs may carry one name,
    so anything keyed on a graph's identity must use {!content_id}. *)

val content_id : t -> int
(** A 62-bit signature of the graph's content, fixed by
    {!Builder.freeze}: every instruction's opcode and name and every
    edge's endpoints, latency and distance, in order.  The graph name
    is not part of it.  Equal content always gives equal ids; the
    subproblem memo keys on it so that differently shaped kernels
    sharing a name never share entries. *)

val size : t -> int
(** Number of instructions. *)

val instr : t -> Instr.id -> Instr.t

val instrs : t -> Instr.t array
(** The node array, indexed by id.  Do not mutate. *)

val edges : t -> edge array

val succs : t -> Instr.id -> edge list
(** Outgoing edges of a node (all distances). *)

val preds : t -> Instr.id -> edge list

val iter_edges : (edge -> unit) -> t -> unit

val count : t -> (Instr.t -> bool) -> int
(** Number of instructions satisfying a predicate. *)

val memory_ops : t -> int
(** Instructions consuming a DMA request port. *)

(** {1 Derived views} *)

val induced : t -> Instr.id list -> t * Instr.id array
(** [induced g ids] is the subgraph induced by [ids] (edges with both
    endpoints inside), plus the mapping from new ids to original ids.
    Instruction names are preserved. *)

val filter_edges : t -> (edge -> bool) -> t
(** [filter_edges g p] rebuilds the graph keeping only the edges
    satisfying [p] (instructions, opcodes and names preserved).  An
    edge subset of a well-formed graph is always well-formed, so this
    never raises; used by the fuzz shrinker. *)

val equal_structure : t -> t -> bool
(** Same instruction opcodes (in id order) and same edge set — used by
    serialisation round-trip tests. *)

val equal_exact : t -> t -> bool
(** {!equal_structure} plus graph and instruction names: the full
    [parse ∘ print = id] contract of {!Ddg_io}. *)

val pp : Format.formatter -> t -> unit
(** Multi-line summary listing every instruction with its dependences. *)
