(** Imperative binary min-heap priority queue.

    Priorities are compared with a user-supplied total order; used by the
    shortest-path algorithms with exact rational distances. Decrease-key is
    handled lazily: stale entries are skipped at pop time, so [pop] may
    return a node several times — callers keep a [settled] set. *)

type ('p, 'v) t

(** [create compare] is an empty queue ordered by [compare] on priorities. *)
val create : ('p -> 'p -> int) -> ('p, 'v) t

val is_empty : ('p, 'v) t -> bool

(** [push q p v] inserts value [v] with priority [p]. *)
val push : ('p, 'v) t -> 'p -> 'v -> unit

(** [pop q] removes and returns a minimum-priority entry.
    Raises [Not_found] when empty. *)
val pop : ('p, 'v) t -> 'p * 'v
