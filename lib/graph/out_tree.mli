(** Rooted out-trees inside a digraph, represented by parent pointers.

    A multicast tree is an out-tree rooted at the source whose leaves are
    target processors. This module validates edge lists into trees, prunes
    useless branches and answers structural queries; cost-model concerns
    (periods, throughput) live upstream. *)

type t = private {
  root : int;
  parent : int array; (** [-1] for the root and for absent nodes *)
  members : bool array; (** node is part of the tree *)
}

(** [of_edges ~n ~root edges] validates that [edges] forms an out-tree
    rooted at [root]: every node has at most one parent, the root has none,
    every edge tail is connected to the root. Returns [Error reason]
    otherwise. The edge list may be in any order. *)
val of_edges : n:int -> root:int -> (int * int) list -> (t, string) result

val mem : t -> int -> bool
val parent : t -> int -> int option
val children : t -> int -> int list
val edges : t -> (int * int) list

(** [depth t v] is the number of edges from the root to [v].
    Raises [Invalid_argument] if [v] is not a member. *)
val depth : t -> int -> int

(** [covers t nodes] is true when every node of [nodes] is a member. *)
val covers : t -> int list -> bool

(** [prune t ~keep] removes maximal branches containing no node satisfying
    [keep] (the root always stays) — the classical Steiner pruning step. *)
val prune : t -> keep:(int -> bool) -> t

(** [uses_graph_edges t g] checks that every tree edge exists in [g]. *)
val uses_graph_edges : t -> Digraph.t -> bool
