(** Edge-weighted directed graphs.

    Nodes are dense integer identifiers [0 .. n_nodes - 1]; an edge carries
    an exact rational cost — on platform graphs, the time to push one
    unit-size message across the link (the paper's [c(j,k)]). The structure
    is mutable during construction and then used as if immutable; all
    algorithms in this library treat it read-only. Parallel edges are not
    allowed (platform graphs are simple); [add_edge] on an existing pair
    raises. *)

type t

type edge = { src : int; dst : int; cost : Rat.t }

(** [create n] is a graph with [n] nodes and no edges. *)
val create : int -> t

(** Number of nodes (fixed at creation). *)
val n_nodes : t -> int

(** Number of edges currently present. *)
val n_edges : t -> int

(** [add_edge g ~src ~dst ~cost] inserts a directed edge. Raises
    [Invalid_argument] if the edge already exists, if [src = dst], if an
    endpoint is out of range, or if [cost <= 0]. *)
val add_edge : t -> src:int -> dst:int -> cost:Rat.t -> unit

(** [add_sym_edge g a b cost] inserts both [a -> b] and [b -> a] with the
    same cost (the common case for LAN links). *)
val add_sym_edge : t -> int -> int -> Rat.t -> unit

(** [set_cost g ~src ~dst ~cost] updates an existing edge.
    Raises [Not_found] if absent. *)
val set_cost : t -> src:int -> dst:int -> cost:Rat.t -> unit

val mem_edge : t -> src:int -> dst:int -> bool

val find_edge_opt : t -> src:int -> dst:int -> edge option

(** [cost g ~src ~dst] is the cost of an existing edge; raises [Not_found]
    when absent. *)
val cost : t -> src:int -> dst:int -> Rat.t

(** Outgoing edges of a node, in insertion order. *)
val out_edges : t -> int -> edge list

(** Incoming edges of a node, in insertion order. *)
val in_edges : t -> int -> edge list

val out_degree : t -> int -> int
val in_degree : t -> int -> int

(** Out-neighbour node ids. *)
val succs : t -> int -> int list

(** In-neighbour node ids. *)
val preds : t -> int -> int list

(** All edges, in unspecified order. *)
val edges : t -> edge list

val iter_edges : (edge -> unit) -> t -> unit
val fold_edges : ('a -> edge -> 'a) -> 'a -> t -> 'a

(** Optional human-readable node names (used by DOT export and traces). *)
val set_label : t -> int -> string -> unit

(** [label g v] is the label of [v], defaulting to ["P<v>"]. *)
val label : t -> int -> string

(** Deep copy. *)
val copy : t -> t

(** [restrict g ~keep] is a graph on the same node ids containing exactly
    the edges whose both endpoints satisfy [keep]. Node ids are preserved so
    that callers can keep exterior bookkeeping (sources, targets) intact. *)
val restrict : t -> keep:(int -> bool) -> t

(** [reverse g] has every edge flipped, costs preserved. *)
val reverse : t -> t
