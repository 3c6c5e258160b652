(** Multicast trees and their one-port steady-state cost.

    A multicast tree is an out-tree rooted at the platform source whose
    members include every target. Under the one-port model, a node that
    must forward each message to children [k1 .. km] spends
    [c(v,k1) + ... + c(v,km)] time units per message sending, and [c(p,v)]
    time units receiving from its parent [p]. The {e period} of the tree is
    the largest such port occupation over all nodes: one new multicast can
    enter the pipeline every [period] time units, so the tree's steady-state
    throughput is [1 / period]. *)

type t = private { tree : Out_tree.t; platform : Platform.t }

(** [of_edges p edges] validates an edge list into a multicast tree for
    platform [p]: a well-formed out-tree rooted at the source, using only
    platform edges, covering every target. *)
val of_edges : Platform.t -> (int * int) list -> (t, string) result

val of_edges_exn : Platform.t -> (int * int) list -> t

(** [of_out_tree p tree] validates an already-built out-tree. *)
val of_out_tree : Platform.t -> Out_tree.t -> (t, string) result

val edges : t -> (int * int) list

(** [send_occupation t v] is the time [v] spends sending per message. *)
val send_occupation : t -> int -> Rat.t

(** [recv_occupation t v] is the time [v] spends receiving per message
    (zero at the source and for non-members). *)
val recv_occupation : t -> int -> Rat.t

(** The one-port period: [max_v max(send, recv)]; always positive. *)
val period : t -> Rat.t

(** [throughput t = 1 / period t] multicasts per time unit. *)
val throughput : t -> Rat.t

(** Sum of edge costs (the classical Steiner objective, for comparison). *)
val steiner_cost : t -> Rat.t

(** [prune t] drops branches with no target (keeps the result valid). *)
val prune : t -> t
