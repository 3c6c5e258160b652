(** Descriptive statistics of platform graphs.

    The paper characterizes its Tiers platforms by node counts, LAN host
    counts and link heterogeneity; this module computes those figures so
    the bench and the CLI can print platform summaries comparable to §7's
    setup description. *)

(** Link-cost figures; they exist only on a platform with at least one edge. *)
type costs = {
  min_cost : Rat.t;
  max_cost : Rat.t;
  mean_cost : float;
  heterogeneity : float; (** max cost / min cost *)
}

type t = {
  nodes : int; (** active nodes *)
  edges : int;
  lan_hosts : int;
  source_ecc : int; (** hop eccentricity of the source (max BFS depth) *)
  costs : costs option; (** [None] on an edgeless platform *)
  max_out_degree : int;
  max_in_degree : int;
}

(** [compute p] gathers the statistics. *)
val compute : Platform.t -> t

val pp : Format.formatter -> t -> unit
