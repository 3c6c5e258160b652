(** Reachability on {!Digraph}. *)

(** [bfs_depth g src] is an array mapping each node to its hop distance from
    [src], or [-1] when unreachable. The depth of the platform graph bounds
    the initialization phase of a periodic schedule (proof of Theorem 1). *)
val bfs_depth : Digraph.t -> int -> int array

(** [reachable g src] marks every node reachable from [src]. *)
val reachable : Digraph.t -> int -> bool array

(** [reaches_all g src targets] is true when every node of [targets] is
    reachable from [src] — the feasibility test for a multicast instance. *)
val reaches_all : Digraph.t -> int -> int list -> bool
