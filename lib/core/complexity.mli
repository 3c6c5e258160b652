(** Constructions and exact solvers around the §4 complexity results.

    The Fig. 2 gadget turns a MINIMUM-SET-COVER instance [(X, C, B)] into a
    COMPACT-MULTICAST instance: a source linked to one node per subset
    [C_i] (edge cost [1/B]) and one target per element [X_j], with an edge
    [C_i -> X_j] of cost [1/N] iff [X_j ∈ C_i]. A single multicast tree of
    period at most 1 exists iff a cover of size at most [B] does; more
    precisely the best single-tree throughput equals [B / K*] where [K*] is
    the minimum cover size (proof of Theorem 2).

    The exact solvers here are exponential-time by necessity (Theorem 1):
    they enumerate multicast trees, and are meant for gadget-sized
    instances and the worked examples. *)

(** [gadget cover ~bound] builds the Fig. 2 platform for bound [B = bound].
    Node 0 is the source, nodes [1 .. |C|] the subset relays, nodes
    [|C|+1 .. |C|+N] the element targets. *)
val gadget : Set_cover.t -> bound:int -> Platform.t

(** [best_single_tree p] finds a multicast tree of minimum one-port period
    by exhaustive branch-and-bound over pruned trees (every leaf a target).
    Returns [None] when some target is unreachable. Raises [Failure] after
    generating 2 000 000 partial states — the instance is too big for exact
    search. *)
val best_single_tree : Platform.t -> Multicast_tree.t option

(** [enumerate_trees ?max_trees p] lists every pruned multicast tree
    (distinct edge sets). Raises [Failure] beyond [max_trees] (default
    [200_000]). *)
val enumerate_trees : ?max_trees:int -> Platform.t -> Multicast_tree.t list

(** [optimal_tree_packing ?max_trees p] computes the true optimal
    steady-state throughput over weighted combinations of multicast trees —
    the §4 tree-packing LP solved exactly over the full (enumerated) tree
    set. Only for small instances. Returns the optimally weighted set. *)
val optimal_tree_packing : ?max_trees:int -> Platform.t -> Tree_set.t option

(** [verify_gadget_correspondence cover ~bound] checks Theorem 1/2's
    correspondence on the gadget: best single-tree throughput = bound / K*.
    Returns [(tree_throughput, k_star, matches)]. *)
val verify_gadget_correspondence : Set_cover.t -> bound:int -> float * int * bool
