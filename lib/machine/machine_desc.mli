(** First-class machine descriptions.

    The paper defines hierarchical cluster assignment over an arbitrary
    resource hierarchy; this module is that hierarchy as a value.  A
    description fixes

    {ul
    {- the level structure: a non-empty stack of levels, each with a
       fan-out (children per cluster) and a MUX capacity (output wires
       per cluster at set levels, father wires admitted by the crossbar
       at the leaf);}
    {- the per-CN wiring ([cn_in_wires] incoming wires per computation
       node) and the DMA port count;}
    {- optionally a heterogeneous resource table per computation node
       (ALU/MUL-class vs AG/MEM-class unit counts); omitted, every CN is
       the DSPFabric one — one ALU, one AG.}}

    {!Dspfabric} re-expresses the paper's coprocessor as one such
    description, so the solver stack ({!Hca_core.Hierarchy} and below)
    takes any description without knowing which machine it runs.
    Descriptions are plain immutable data: structural equality is
    machine equality ({!equal}), and {!id} is an injective rendering
    used wherever a machine keys a cache that outlives one run. *)

(** One level of the hierarchy, top-down. *)
type level = {
  fanout : int;  (** clusters (or CNs at the leaf) per parent *)
  mux_cap : int;
      (** MUX capacity at set levels; at the leaf, the crossbar's bound
          on incoming father wires *)
}

type t

val make :
  ?tables:Resource.t array ->
  name:string ->
  levels:level array ->
  cn_in_wires:int ->
  dma_ports:int ->
  unit ->
  t
(** [levels] must be non-empty with positive fan-outs and capacities;
    [tables], when given, must have exactly {!total_cns} entries, each
    with non-negative fields and at least one issue slot.  A table where
    every entry equals [Resource.cn] is normalised away, so descriptions
    built with and without it are {!equal}.
    @raise Invalid_argument on violations. *)

val name : t -> string

val id : t -> string
(** Injective over every field (name included, length-prefixed so no
    name can forge another description's id): two descriptions share an
    [id] iff they are {!equal}.  This is the string that keys the
    subproblem memo cache and the serve daemon's persistent store —
    see DESIGN.md §18 on why aliasing two machines would be unsound. *)

val equal : t -> t -> bool

val depth : t -> int

val total_cns : t -> int

val levels : t -> level array
(** A fresh copy; mutating it does not affect the description. *)

val cn_in_wires : t -> int

val dma_ports : t -> int

val is_uniform : t -> bool
(** No heterogeneous table: every CN is [Resource.cn]. *)

val cn_table : t -> int -> Resource.t
(** Resource table of one CN (by absolute index).
    @raise Invalid_argument if the index is out of range. *)

val tables : t -> Resource.t array
(** Per-CN tables, materialised (a fresh array of {!total_cns}). *)

val with_tables : ?name:string -> t -> Resource.t array -> t
(** Same shape, new per-CN tables (and optionally a new display name).
    @raise Invalid_argument as {!make}. *)

(** Everything the per-level cluster-assignment subproblem needs to know
    about its level of the hierarchy (shape only — capacities of a
    concrete node's children come from {!child_capacities}, which can
    differ per node on heterogeneous machines). *)
type level_view = {
  level : int;
  children : int;  (** PG regular nodes at this level *)
  cns_per_child : int;
  mux_capacity : int;
      (** bound on distinct real in-neighbours per PG node; at the leaf
          this is the per-CN incoming-wire count *)
  out_capacity : int;
      (** output wires per node: the MUX capacity at set levels, 1 at
          the leaf (each CN has a single broadcastable outgoing wire) *)
  max_in_ports : int;
      (** how many father wires may enter: the leaf crossbar's bound,
          unbounded elsewhere (the set MUX capacity already applies) *)
  is_leaf : bool;
}

val level_view : t -> level:int -> level_view
(** @raise Invalid_argument if [level] is out of range. *)

(** {2 CN addresses}

    A CN's absolute index is the mixed-radix number its path writes:
    one digit per level, top-down, digit [i] in base [fanout i].  These
    three functions are the only place that numbering is spelled out. *)

val cn_path : t -> int -> int list
(** The child index at each level, top-down, that leads from the root
    to the CN of the given absolute index (its last element is the CN's
    index inside its leaf cluster). *)

val cn_of_path : t -> int list -> int
(** The inverse of {!cn_path}: [cn_of_path t (cn_path t cn) = cn].  A
    shorter path names a cluster and gives the first CN under it.
    @raise Invalid_argument if [path] is too deep or a step is out of
    range. *)

val shared_depth : t -> int -> int -> int
(** How many leading levels the paths of two CNs share: the depth of
    their lowest common ancestor cluster, {!depth} when the CNs are
    equal.  Allocates nothing. *)

val child_capacities : t -> path:int list -> Resource.t array
(** Resource tables of the children of the cluster reached by [path]
    from the root ([path = []] is the root itself; element [i] picks the
    [i]-th child at each level).  Each entry sums the CN tables of one
    child subtree; on a uniform machine every entry is
    [Resource.scale cns_per_child Resource.cn].
    @raise Invalid_argument if [path] is too deep or steps out of
    range. *)

val resources : t -> Hca_ddg.Mii.resources
(** Whole-machine capacities for the level-0 / unified MIIRes. *)

val wire_cost : t -> int
(** Hardware cost proxy used as a Pareto axis by [hca dse]: total
    output wires over the machine, [sum over levels of
    clusters(level) * out_capacity(level)] (1 per CN at the leaf). *)

val pp : Format.formatter -> t -> unit
