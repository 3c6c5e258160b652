(** Periodic schedule construction (the constructive half of §4/§5).

    Given a feasible weighted tree set [{(T_k, y_k)}] with rational weights,
    one period of length [T] (a common denominator of the [y_k]) carries
    [m_k = y_k * T] whole messages through each tree. The communications of
    a period form a bipartite multigraph between send-ports and
    receive-ports whose maximum weighted degree is at most [T]; the weighted
    König edge-colouring ({!Edge_coloring}) splits them into sequential
    matching slots that fit in the period — exactly the argument used in the
    NP-membership proofs (Theorem 1) and the schedule reconstructions of
    §5.

    Steady-state semantics: during period [p], a node at depth [d] of tree
    [k] forwards message [p - d] (received in period [p - 1]), so causality
    holds whatever the intra-period slot order. The initialization phase
    lasts [depth] periods (bounded by the platform depth, as in the proof of
    Theorem 1). *)

type transfer = {
  src : int;
  dst : int;
  tree : int; (** index into the tree set *)
  start : Rat.t; (** offset within the period *)
  finish : Rat.t;
}

type t = private {
  period : Rat.t; (** wall-clock length of one period *)
  messages_per_period : int; (** multicasts initiated per period, all trees *)
  per_tree_messages : int array;
  trees : Multicast_tree.t array;
  transfers : transfer list; (** sorted by [start] *)
  throughput : Rat.t; (** messages_per_period / period *)
}

(** [of_tree_set s] builds a periodic schedule realizing the throughput of
    the (feasible) tree set [s]. Raises [Invalid_argument] when [s] is
    infeasible. *)
val of_tree_set : Tree_set.t -> t

(** [with_transfers sched transfers] replaces the transfer list verbatim,
    with {e no} validation: the result may violate every schedule invariant.
    Used to splice repaired transfer lists and, in tests, to hand-corrupt
    schedules that {!check} and the simulator must then reject. *)
val with_transfers : t -> transfer list -> t

(** [check sched] re-verifies the schedule: transfers use platform edges of
    their tree, per-node port exclusivity holds at every instant, each tree
    edge carries exactly [m_k] messages per period, and every transfer fits
    in the period. *)
val check : t -> (unit, string) Result.t

(** Worst-case pipeline depth (periods before the first message reaches the
    deepest target). *)
val init_periods : t -> int
