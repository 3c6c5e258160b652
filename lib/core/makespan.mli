(** Single-multicast makespan under the one-port model.

    The traditional objective the paper argues {e against} (§1): the time
    between the source's first emission and the last target's reception of
    one message. For a fixed multicast tree the only freedom is the order
    in which each node serves its children; completion of a child [k]
    served [j]-th is [sum of the first j child costs + subtree makespan of
    k], so the order matters. This module computes:

    - the exact optimal makespan of a tree by ordering children optimally
      (exhaustive over each node's children permutations, with the classic
      longest-subtree-first order as an upper bound and fast path);
    - the steady-state contrast numbers used by the [makespan] example and
      bench ablation: a tree optimized for makespan can be strictly worse
      in throughput and vice versa.

    Also evaluates trees under the {e multi-port} model of the related work
    (§8), where a node may serve all children simultaneously and the
    makespan of a tree is simply its longest weighted root-leaf path. *)

(** [one_port_makespan t] is the minimum single-message makespan of the
    tree with optimal child ordering at every node. Children lists are
    small on our platforms; nodes with more than [8] children fall back to
    the longest-subtree-first heuristic order. *)
val one_port_makespan : Multicast_tree.t -> Rat.t

(** [one_port_makespan_heuristic t] uses longest-subtree-first ordering
    everywhere (the classical heuristic); an upper bound on the optimum. *)
val one_port_makespan_heuristic : Multicast_tree.t -> Rat.t

(** [multi_port_makespan t] is the longest weighted root→node path — the
    makespan when ports are unbounded (§8's multi-port model). *)
val multi_port_makespan : Multicast_tree.t -> Rat.t

(** [best_makespan_tree p] searches (exhaustively, small instances only)
    for the multicast tree minimizing {!one_port_makespan}; pairs with
    {!Complexity.best_single_tree} — which minimizes the period — to show
    the two objectives pick different trees. *)
val best_makespan_tree : Platform.t -> Multicast_tree.t option
