(** The paper's tree-based heuristic (§6, Fig. 9).

    A Minimum-Cost-Path heuristic re-metricised for the one-port objective:
    the cost of a candidate path is the {e maximum}, over its edges, of the
    residual cost [c'(i,j)] — a proxy for the port occupation the path
    would impose. After a path is committed, every out-edge [(i,k)] of a
    node [i] on the path inherits the committed edge's cost
    ([c'(i,k) += c'(i,j)]) because [i] now spends that time forwarding each
    message, and the committed edge itself becomes free ([c'(i,j) = 0]) —
    reusing it carries no additional cost. *)

(** Fig. 9's re-metric, which {!Repair.patch_tree} replays over surviving
    edges: [residual g] starts every edge of [g] at its cost,
    [residual_cost r e] is the current [c'] of [e] (an edge of [g] or of a
    restriction of it), and [commit r (i, j)] applies lines 11-13 to the
    committed edge [(i, j)]. *)
type residual

val residual : Digraph.t -> residual
val residual_cost : residual -> Digraph.edge -> Rat.t
val commit : residual -> int * int -> unit

type result = {
  tree : Multicast_tree.t;
  period : Rat.t; (** one-port period of the tree *)
  throughput : Rat.t;
}

(** [run p] grows the multicast tree target by target. [None] when some
    target is unreachable. Each call runs inside an [mcph.run] trace span
    and counts under the [mcph.runs] metric (PR 4). *)
val run : Platform.t -> result option
