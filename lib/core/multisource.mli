(** The AUGMENTED SOURCES heuristic (§5.2.3, Fig. 8).

    Keep the target set fixed but promote well-placed nodes to secondary
    sources: a secondary source first receives the whole message from the
    earlier sources and then re-emits it. Each {!Refine.greedy} round
    probes the outside nodes in decreasing order of their flow
    contribution in the current MulticastMultiSource-UB solution, and keeps
    an addition when the period does not degrade. The scatter-style LP is schedulable, so the result is
    an achievable period (the paper's figures list this as
    "Multisource MC"). *)

type result = {
  period : float;
  throughput : float;
  sources : int list; (** primary source first, then the accepted ones *)
  solution : Formulations.solution;
}

(** [run ?max_sources ?max_tries_per_round p]. [max_sources] caps the total
    source count (default 4 — each extra source multiplies the LP size).
    [None] when the multicast is infeasible. *)
val run : ?max_sources:int -> ?max_tries_per_round:int -> Platform.t -> result option
