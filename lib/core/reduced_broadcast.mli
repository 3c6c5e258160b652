(** The REDUCED BROADCAST heuristic (§5.2.1, Fig. 6).

    Start from the optimal steady-state broadcast on the whole platform
    (Broadcast-EB, which is achievable), then shrink it: each
    {!Refine.greedy} round probes the non-target nodes in increasing order
    of their contribution to the flow towards the targets, and keeps a
    removal when broadcasting on the reduced platform is at least as fast.
    The result is a broadcast on a sub-platform containing every target,
    hence a valid multicast schedule; {!Augmented_multicast.to_schedule}
    realizes it. *)

type result = Augmented_multicast.result = {
  period : float;
  throughput : float;
  kept : int list; (** nodes of the final reduced platform, ascending *)
  solution : Formulations.solution; (** Broadcast-EB on the final platform *)
}

(** [run ?max_tries_per_round p]: [max_tries_per_round] caps how many
    removal candidates a round probes (each probe is one LP solve);
    [None] means all of them, as in the paper. Returns [None] when the
    initial broadcast is infeasible. *)
val run : ?max_tries_per_round:int -> Platform.t -> result option
