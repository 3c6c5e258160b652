(** Solver robustness chain: revised simplex, then exact fallback.

    Every LP is one {!Revised_simplex.form}, and both rungs read it.
    {!Revised_simplex} goes first — sparse pricing, factorized basis,
    and the engine that can start warm from a basis given by column
    index. If it stalls or returns non-finite numbers (degraded or
    near-degenerate platforms from the resilience subsystem produce such
    LPs), the {e same} program, {!Revised_simplex.to_model} of the form,
    is re-solved on {!Simplex_exact}: every coefficient is a float, hence
    a dyadic rational, so the exact re-solve is faithful to the program
    as the float engine saw it, column for column. The exact engine
    stays the cross-check oracle in tests.

    Both engines report duals: exact duals are converted with
    {!Rat.to_float}, so cut- and column-generation loops can price after
    a fallback. The [`Exact] tag still tells them the float engine had
    trouble, which the column-generation loop uses to stop early rather
    than iterate on a shaky model.

    Observability: every solve runs inside an [lp.solve] trace span
    tagged with the model size, the engine that won ([revised]/[exact])
    and the final status. Each revised-to-exact retry counts under
    [solver_chain.fallbacks]. Warm-start successes count under
    [lp.warm.hits]. Per-engine solve and pivot totals live in
    {!Lp_counters} (a typed view over the metrics registry). *)

type status =
  | Optimal of Lp_model.solution * [ `Revised of int array | `Exact ]
      (** which engine produced the accepted solution; [`Revised basic]
          carries the revised engine's optimal basis, column indices of
          the form it solved, which seed the caller's next start *)
  | Infeasible
  | Unbounded

(** [solve ?max_iter ?start form] runs the chain on [form], seeding the
    revised engine with [start]. [max_iter] is forwarded to the revised
    engine; the exact rung solves {!Revised_simplex.to_model}[ form],
    uncapped. *)
val solve : ?max_iter:int -> ?start:Revised_simplex.start -> Revised_simplex.form -> status

(** [solve_exact model] solves the model directly on {!Simplex_exact}
    (coefficients converted exactly); exposed for tests and cross-checks. *)
val solve_exact : Lp_model.t -> status
