(** Maximum flow / minimum cut (Dinic's algorithm, float capacities).

    Separation oracle for the cut-generation solver of the Multicast-LB and
    Broadcast-EB programs: for candidate edge occupations [n_jk], a target
    can receive throughput ρ iff every source→target cut has capacity at
    least ρ (max-flow–min-cut), so a violated cut is a violated LP row. *)

type result = {
  value : float;
  edge_flow : float array; (** flow on each input edge, same order *)
  source_side : bool array; (** min-cut: nodes reachable from [s] in the residual *)
  sink_side : bool array;
      (** second min-cut: nodes that can reach [t] in the residual (both
          cuts coincide only when the minimum cut is unique) *)
}

(** [solve ~n ~edges ~s ~t ?limit ()] computes a maximum [s]→[t] flow on
    the digraph with [n] nodes and capacitated [edges = (src, dst, cap)].
    Capacities must be non-negative; [limit] stops early once that much
    flow has been routed (used to recover a flow of value exactly ρ).
    [source_side] describes a minimum cut when [limit] was not reached. *)
val solve :
  n:int -> edges:(int * int * float) array -> s:int -> t:int -> ?limit:float -> unit -> result

(** A network of fixed topology whose buffers every {!run} reuses: the
    cut loop solves one flow per target per round on the same edges, and
    only the capacities change. {!solve} is {!create} plus one {!run}. *)
type t

(** [create ~n ~edges] is the network on [n] nodes with the [(src, dst)]
    [edges]. *)
val create : n:int -> edges:(int * int) array -> t

(** [run net ~cap ~s ~t ?limit ()] is the value of a maximum [s]→[t] flow
    under capacities [cap] (one per edge, same order as {!create}'s), as
    {!solve} computes it. The flow and the residual network stay in [net]
    until the next run. *)
val run : t -> cap:float array -> s:int -> t:int -> ?limit:float -> unit -> float

(** [flow net e] is the last run's flow on edge [e]. *)
val flow : t -> int -> float

(** [cut_sides net ~s ~t] is the last run's [(source_side, sink_side)], as
    in {!result}, given that run's [s] and [t]. The arrays are [net]'s
    buffers: the next call overwrites them. *)
val cut_sides : t -> s:int -> t:int -> bool array * bool array
