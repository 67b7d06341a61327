(** Parametric model of the DSPFabric coprocessor (§2.2), re-expressed
    as one {!Machine_desc} description.

    The reference instance (Fig. 2) has 64 computation nodes arranged in
    three levels of fan-out 4: level 0 is an array of four 16-issue
    cluster sets communicating through multiplexers of capacity [N];
    inside each set, level 1 replicates the structure with four 4-issue
    sub-sets and MUX capacity [M]; the last level connects four
    single-issue CNs through a reconfigurable crossbar that admits the
    internal connections plus [K] of the wires incoming from level 1.
    Each CN has two incoming wires and one outgoing wire, an ALU, an AG
    towards the programmable DMA, and modulo-scheduling support.

    The DMA serves at most [dma_ports] simultaneous requests (paper:
    "e.g. 8 requests"), which bounds the resource MII of memory-heavy
    kernels.

    [t] {e is} [Machine_desc.t]: every query below also works on
    descriptions parsed from [.machine] files or sampled by the DSE
    generator, and everything downstream of {!Hca_core.Hierarchy} takes
    either interchangeably. *)

type t = Machine_desc.t

val make :
  ?fanouts:int array ->
  ?cn_in_wires:int ->
  ?dma_ports:int ->
  n:int ->
  m:int ->
  k:int ->
  unit ->
  t
(** Defaults: [fanouts = [|4;4;4|]] (the 64-CN instance),
    [cn_in_wires = 2], [dma_ports = 8].
    @raise Invalid_argument on non-positive parameters, or when
    [Array.length fanouts <> 3] while [n]/[m]/[k] are level-indexed. *)

val reference : t
(** The paper's best configuration: 64 CNs, [N = M = K = 8]. *)

val name : t -> string
(** E.g. ["dspfabric-64(N=8,M=8,K=8)"]. *)

val id : t -> string
(** Total identity ({!Machine_desc.id}): two fabrics share an [id] iff
    they are equal descriptions — unlike {!name}, which for
    {!make}-built fabrics elides the fan-outs, the per-CN wire count
    and the DMA ports.  Used wherever a fabric keys a cache that
    outlives a single run. *)

val depth : t -> int
(** Number of hierarchy levels (3 for the reference instance). *)

val total_cns : t -> int

val dma_ports : t -> int

(** Re-export of {!Machine_desc.level_view}: everything the per-level
    cluster-assignment subproblem needs to know about its level of the
    hierarchy. *)
type level_view = Machine_desc.level_view = {
  level : int;
  children : int;  (** PG regular nodes at this level *)
  cns_per_child : int;
  mux_capacity : int;
      (** bound on distinct real in-neighbours per PG node; at the leaf
          this is the per-CN incoming-wire count (2) *)
  out_capacity : int;
      (** output wires per node: the MUX capacity at set levels, 1 at
          the leaf (each CN has a single broadcastable outgoing wire) *)
  max_in_ports : int;
      (** how many father wires may enter: [K] at the leaf crossbar,
          unbounded elsewhere (the set MUX capacity already applies) *)
  is_leaf : bool;
}

val level_view : t -> level:int -> level_view
(** @raise Invalid_argument if [level] is out of range. *)

val child_capacities : t -> path:int list -> Resource.t array
(** {!Machine_desc.child_capacities}: per-child resource tables of the
    cluster at [path] — uniform [cns_per_child * Resource.cn] entries on
    {!make}-built fabrics. *)

val resources : t -> Hca_ddg.Mii.resources
(** Whole-machine capacities for the level-0 / unified MIIRes. *)
