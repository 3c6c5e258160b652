(** The AUGMENTED MULTICAST heuristic (§5.2.2, Fig. 7).

    Start from the platform restricted to the source and the targets and
    grow it: each {!Refine.greedy} round probes the outside nodes in
    decreasing order of the flow they carry towards the targets in the
    full-platform Multicast-LB solution, and keeps an addition when
    broadcasting on the grown node set is at least as fast. Because the
    final object is a broadcast on a sub-platform containing all targets,
    it is schedulable. *)

(** A broadcast on a node subset containing the source and every target:
    this heuristic's result and {!Reduced_broadcast}'s. *)
type result = {
  period : float;
  throughput : float;
  kept : int list; (** node set of the final broadcast platform, ascending *)
  solution : Formulations.solution; (** Broadcast-EB on that node set *)
}

(** [run ?max_tries_per_round p]: [max_tries_per_round] caps how many
    candidates a round probes (each probe is one LP solve); [None] means
    all of them, as in the paper. [None] when the multicast itself is
    infeasible. *)
val run : ?max_tries_per_round:int -> Platform.t -> result option

(** [to_schedule p r] packs the final broadcast-on-subset solution into
    arborescences spanning [r.kept] ({!Arborescence_packing}) and colours
    them into a periodic schedule. Returns the schedule and its exact
    throughput. *)
val to_schedule : Platform.t -> result -> (Schedule.t * Rat.t, string) Result.t
