(** Weighted combinations of multicast trees.

    The Series problem's solutions are finite sets [{(T_k, y_k)}] where
    [y_k] is the average number of messages pushed through tree [T_k] per
    time unit. The set is feasible when every node's aggregated send and
    receive occupations stay within one time unit (the paper's constraints
    (1,i) and (2,i)); its throughput is [sum y_k]. Section 3's example shows
    such combinations strictly beat single trees. *)

type t = private (Multicast_tree.t * Rat.t) list

(** [make pairs] validates weights (positive) and a common platform graph.
    The trees may carry different target sets over the same graph — the
    scatter-style schedules use one single-destination chain per commodity.
    Raises [Invalid_argument] otherwise. *)
val make : (Multicast_tree.t * Rat.t) list -> t

val trees : t -> (Multicast_tree.t * Rat.t) list

(** [worst_occupation s] is the largest send or receive occupation over
    all nodes (zero for a set that loads no port). Scaling the weights by
    its inverse makes the worst port exactly busy. *)
val worst_occupation : t -> Rat.t

(** [is_feasible s] checks every port occupation is at most 1. *)
val is_feasible : t -> bool

(** Total messages per time unit. *)
val throughput : t -> Rat.t

(** [best_weights trees] maximizes the combined throughput of the given
    trees by exact LP over their weights — the restriction of the paper's
    tree-packing LP (§4, Theorem 4) to a fixed tree set. Returns the
    optimally weighted set (weights may be zero). *)
val best_weights : Multicast_tree.t list -> t

(** [scale s f] multiplies every weight by [f > 0] (used to normalize). *)
val scale : t -> Rat.t -> t
