(** Memoizing front-end for the multicast LP bounds.

    The robust planner and the benches solve {!Formulations.multicast_lb}
    on {e survivor platforms} — the platform
    with one link or node removed — and the same survivor recurs many times:
    once per candidate schedule per scenario, and again during rescoring.
    This module keys solved bounds by a canonical platform fingerprint so
    recurrences cost a hash lookup instead of a simplex run.

    The fingerprint covers everything the LPs read: node count, source,
    target set, active-node set, and the full edge list with exact rational
    costs (edges sorted, so construction order is irrelevant). Node kinds
    and labels are excluded — the LPs never look at them. Two platforms with
    equal fingerprints therefore have identical LP solutions, and a cache
    hit returns {e the} value a fresh solve would produce (the solver is
    deterministic), keeping cached and uncached runs bit-identical.

    Thread-safety: the table is mutex-protected and the hit/miss counters
    atomic, so concurrent lookups from a {!Pool} are safe. Two domains
    missing on the same key both solve and store; the second store
    overwrites with an identical value, which is harmless.

    The cache is process-global and unbounded; survivor platforms of the
    scenario sets in play are a few hundred entries at most. [reset] drops
    all entries and zeroes the counters. *)

(** The canonical cache key of a platform (see above for what it covers).
    Exposed for tests asserting fingerprint equality/inequality. *)
val fingerprint : Platform.t -> string

(** {!Formulations.multicast_lb} through the cache. [caller] (default
    ["unknown"]) attributes the lookup in the observability layer: hits
    and misses are counted per caller under the metric names
    [lp_cache.hits.<caller>] / [lp_cache.misses.<caller>], and traced
    lookups carry the caller as a span argument — so a metrics snapshot
    shows {e who} is getting the cache value.

    [warm] seeds the solve on a miss with a basis from a related solve
    (see {!Formulations.multicast_lb_warm}); hits ignore it. Callers
    must derive [warm] deterministically from platform state (e.g. via
    {!multicast_lb_basis} on the nominal platform) to preserve the
    cached-run ≡ uncached-run bit-identity this cache guarantees. *)
val multicast_lb :
  ?caller:string -> ?warm:Formulations.warm_basis -> Platform.t ->
  Formulations.solution option

(** [multicast_lb_basis ?caller p] is the optimal LB basis of [p], solving
    (and caching) its LB on a miss — the warm-start seed the resilience
    layer threads into each survivor's {!multicast_lb}. [None] when the
    LB is infeasible or the revised engine did not produce the basis. *)
val multicast_lb_basis :
  ?caller:string -> Platform.t -> Formulations.warm_basis option

(** Aggregate hit/miss counts since the last {!reset}, across all callers (the per-caller split lives in the {!Metrics} registry). *)
type stats = { hits : int; misses : int }

val stats : unit -> stats

(** Drop all entries and zero the counters. *)
val reset : unit -> unit

(** [set_enabled false] makes the wrappers pass through to fresh solves
    (counting neither hits nor misses). Bench-only: it exists so BENCH_3
    can measure the pre-cache baseline. Default enabled. *)
val set_enabled : bool -> unit
