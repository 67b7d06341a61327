(** Serialisation of machine descriptions: the [.machine] line-oriented
    text format, round-trippable exactly ([parse ∘ print = id],
    {!Machine_desc.equal} — names included, escaped as in
    {!Hca_ddg.Ddg_io}).

    Format, one record per line, ['#'] comments allowed:
    {v
    machine <name>
    level <fanout> <mux_cap>      # one per level, top-down
    cn_in_wires <count>
    dma_ports <count>
    cn <lo>[-<hi>] <alus> <ags>   # optional per-CN resource overrides
    v}
    The [machine] header must come first; at least one [level] and
    exactly one [cn_in_wires] / [dma_ports] record are required.  [cn]
    records assign a resource table to an absolute CN index range
    (inclusive); unassigned CNs keep the DSPFabric default of one ALU
    and one AG.  Later records override earlier ones. *)

val to_string : Machine_desc.t -> string

val of_string : string -> (Machine_desc.t, string) result
(** Error message carries the offending line number. *)

val read_file : string -> (Machine_desc.t, string) result
