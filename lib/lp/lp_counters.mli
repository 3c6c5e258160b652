(** Process-wide LP telemetry counters.

    Monotonic tallies of solver activity — how many times each engine ran and
    how many pivots it spent — maintained atomically so that concurrent
    solves on separate domains count correctly. The storage is the
    {!Metrics} registry (names [lp.solves.float], [lp.solves.exact],
    [lp.pivots.float], [lp.pivots.exact], [lp.factorizations], the
    {!Basis} refactorizations, [create]'s and [warm]'s included,
    [lp.warm.rank_deficient], the warm starts whose kept columns left a
    shared row to its slack, so that {!Basis.warm} picked the header in a
    second pass, and [lp.ftrans] and
    [lp.btrans], the float engine's {!Basis.ftran} and {!Basis.btran}
    calls), so the same tallies appear in
    every metrics snapshot; this module remains the typed, record-shaped
    view the solvers and benches use. These are {e telemetry only}:
    per-solve counts live in the solution records
    ({!Lp_model.solution.pivots}, {!Simplex_exact.solution.pivots});
    nothing in the solvers reads these counters back, so they cannot
    affect results. Use [snapshot] + [since] for window accounting. *)

type snapshot = {
  float_solves : int;
      (** calls to the float engine {!Revised_simplex.solve} *)
  exact_solves : int;  (** calls to {!Simplex_exact.solve} *)
  pivots : int;  (** total float-engine pivots, all phases *)
  exact_pivots : int;  (** total exact-engine pivots *)
  warm_hits : int;
      (** solves that successfully started from a caller-supplied basis
          (metric name [lp.warm.hits]) *)
}

(** Incremented by the solver engines; exposed for engines only. *)

val record_float_solve : unit -> unit

val record_exact_solve : unit -> unit

val record_pivots : int -> unit

val record_exact_pivots : int -> unit

val record_warm_hit : unit -> unit

val record_factorization : unit -> unit

val record_rank_deficient : unit -> unit

val record_ftrans : int -> unit

val record_btrans : int -> unit

(** Current totals (atomic reads; consistent enough for reporting). *)
val snapshot : unit -> snapshot

(** [since before] is the per-field delta from [before] to now. *)
val since : snapshot -> snapshot
