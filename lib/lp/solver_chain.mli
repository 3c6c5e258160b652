(** Solver robustness chain: revised simplex, then exact fallback.

    Every model runs through the same two rungs. {!Revised_simplex} goes
    first — sparse pricing, factorized basis, and the engine that can
    import/export warm-start bases. If it stalls or returns non-finite
    numbers (degraded or near-degenerate platforms from the resilience
    subsystem produce such LPs), the {e same} model is re-solved on
    {!Simplex_exact}: every [Lp_model] coefficient is a float, hence a
    dyadic rational, so the exact re-solve is faithful to the model as
    stated. The exact engine stays the cross-check oracle in tests.

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
  | Optimal of Lp_model.solution * [ `Revised | `Exact ]
      (** which engine produced the accepted solution *)
  | Infeasible
  | Unbounded

(** [solve_warm ?max_iter ?warm model] runs the chain, seeding the
    revised engine with [warm] (a basis exported from a related solve —
    see {!Revised_simplex.warm}). Returns the status plus the optimal
    basis when the revised engine won, for the caller to thread into its
    next solve. A useless warm basis costs a cold restart inside the
    revised engine, never a different verdict. [max_iter] is forwarded
    to the revised engine; the exact fallback runs uncapped. *)
val solve_warm :
  ?max_iter:int ->
  ?warm:Revised_simplex.warm ->
  Lp_model.t ->
  status * Revised_simplex.warm option

(** [solve_form ?start form ~model] runs the chain on a model its caller
    keeps in standard form ({!Revised_simplex.le_form}), seeding the
    revised engine with [start]. [model ()] must build the same model as
    an {!Lp_model}; it is called only when the exact rung runs. Returns
    the status plus the revised engine's solution when it won, whose
    [basic] indices seed the caller's next [Indexed] start. *)
val solve_form :
  ?start:Revised_simplex.start ->
  Revised_simplex.form ->
  model:(unit -> Lp_model.t) ->
  status * Revised_simplex.solution option

(** [solve_with_fallback ?max_iter model] is [solve_warm] without basis
    plumbing: cold solve, basis dropped. *)
val solve_with_fallback : ?max_iter:int -> Lp_model.t -> status

(** [solve_exact model] solves the model directly on {!Simplex_exact}
    (coefficients converted exactly); exposed for tests and cross-checks. *)
val solve_exact : Lp_model.t -> status
