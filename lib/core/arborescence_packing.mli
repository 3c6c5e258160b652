(** Weighted arborescence packing: turning a Broadcast-EB solution into a
    concrete schedule.

    The broadcast companion paper (ref. [6] in §5.1.4) shows the
    Broadcast-EB optimum is achievable; the construction packs the
    per-edge occupations [n_jk] into weighted spanning arborescences
    (weighted Edmonds' theorem). This module computes the packing by
    column generation on the one live restricted master ({!Colgen}): the
    master maximizes the total weight of the known arborescences within
    the edge capacities, and the pricing problem — an arborescence of
    minimum total dual price — is solved by Chu–Liu/Edmonds
    ({!Arborescence.minimum}). A greedy bottleneck peeling (directed Prim
    on residuals) seeds the column pool. On every experiment platform the
    packing realizes the full LP value (the [achieved] field reports the
    fraction). *)

type packing = {
  trees : ((int * int) list * float) list;
      (** spanning arborescence edge lists with their weights *)
  achieved : float; (** total packed weight, at most [rho] *)
}

(** [pack p ~capacities ~rho] packs arborescences rooted at the platform
    source spanning all active nodes, within the given per-edge
    capacities. *)
val pack : Platform.t -> capacities:((int * int) * float) list -> rho:float -> packing

(** The master {!pack} solves: one row per edge of positive capacity, then
    the total weight capped at [rho]; one column per arborescence (its
    edges). Exposed so tests can re-solve its final pool cold. *)
val master :
  Platform.t -> capacities:((int * int) * float) list -> rho:float -> (int * int) list Colgen.master

(** The greedy bottleneck peeling alone (the ablation baseline): always a
    valid packing, usually below the optimum. *)
val pack_greedy :
  Platform.t -> capacities:((int * int) * float) list -> rho:float -> packing

(** [schedule_of_broadcast p solution] converts a {!Formulations} broadcast
    solution into a feasible periodic schedule: pack arborescences, round
    the weights to rationals, rescale into feasibility, build the schedule.
    Returns the schedule and its (rational) throughput, or [Error] when the
    packing achieves nothing. *)
val schedule_of_broadcast :
  Platform.t -> Formulations.solution -> (Schedule.t * Rat.t, string) Result.t
