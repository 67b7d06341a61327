(** Greedy delta-debugging shrinker for failing fuzz instances.

    Given a predicate [keep] (typically "the same differential check
    still fails"), {!minimize} repeatedly tries smaller candidates and
    keeps the first one the predicate accepts, until none is accepted:

    - machine simplification first — fewer hierarchy levels, fan-outs
      reduced towards 2, then N/M/K/DMA capacities {e relaxed} towards 8
      (a failure surviving on a roomier machine is a deeper bug);
    - then single-node removal ({!Hca_ddg.Ddg.induced} on all-but-one);
    - then single-node {e splicing} — the node disappears and every
      producer->consumer pair through it is bypassed directly, latencies
      and carried distances summed, so chains collapse where plain
      removal would orphan the consumer;
    - then single-edge removal ({!Hca_ddg.Ddg.filter_edges}).

    Every candidate is checked for {!Gen.well_formed} before the
    predicate runs, so the minimum is still executable by the reference
    semantics.  Each accepted step strictly decreases the measure
    [(CNs, levels, nodes, edges, capacity slack)], so the fixpoint
    terminates.  The shrinker calls nothing but [keep] and pure graph
    surgery: determinism is inherited from the predicate. *)

val ddg_candidates : Hca_ddg.Ddg.t -> Hca_ddg.Ddg.t list
(** Well-formed one-step reductions (each candidate removes exactly one
    node or one edge), in the order {!minimize} tries them. *)

val minimize : keep:(Gen.instance -> bool) -> Gen.instance -> Gen.instance
(** Greedy fixpoint.  [keep] must accept the initial instance (checked);
    the result still satisfies [keep] and no one-step reduction does. *)
