type status =
  | Optimal of Lp_model.solution * [ `Revised of int array | `Exact ]
  | Infeasible
  | Unbounded

(* Lp_model coefficients are floats, i.e. dyadic rationals: of_float_exact
   reproduces the model bit-for-bit in exact arithmetic. *)
let solve_exact model =
  let maximize, obj = Lp_model.objective model in
  let conv expr = List.map (fun (c, v) -> (Rat.of_float_exact c, v)) expr in
  let rows =
    Array.to_list
      (Array.map
         (fun (expr, cmp, rhs) -> (conv expr, cmp, Rat.of_float_exact rhs))
         (Lp_model.rows model))
  in
  match
    Simplex_exact.solve ~n_vars:(Lp_model.n_vars model) ~maximize ~objective:(conv obj) rows
  with
  | Simplex_exact.Infeasible -> Infeasible
  | Simplex_exact.Unbounded -> Unbounded
  | Simplex_exact.Optimal sol ->
    Optimal
      ( {
          Lp_model.values = Array.map Rat.to_float sol.Simplex_exact.values;
          objective = Rat.to_float sol.Simplex_exact.objective;
          row_duals = Array.map Rat.to_float sol.Simplex_exact.row_duals;
          pivots = sol.Simplex_exact.pivots;
        },
        `Exact )

let fallbacks = Metrics.counter "solver_chain.fallbacks"

(* Span args are built in the ?result closure, so a disabled trace pays
   only the closure allocation — the per-solve span is the finest-grained
   one in the codebase and sits under every LP caller. *)
let span_args (vars, rows) status =
  let size = [ ("vars", Trace.Int vars); ("rows", Trace.Int rows) ] in
  match status with
  | Optimal (sol, engine) ->
    ("engine", Trace.Str (match engine with `Revised _ -> "revised" | `Exact -> "exact"))
    :: ("pivots", Trace.Int sol.Lp_model.pivots)
    :: ("objective", Trace.Float sol.Lp_model.objective)
    :: size
  | Infeasible -> ("outcome", Trace.Str "infeasible") :: size
  | Unbounded -> ("outcome", Trace.Str "unbounded") :: size

let solve ?max_iter ?start form =
  Trace.with_span ~cat:"lp" "lp.solve"
    ~result:(fun st -> span_args (Revised_simplex.dims form) st)
    (fun () ->
      match Revised_simplex.solve ?max_iter ?start form with
      | Revised_simplex.Optimal (sol, basic)
        when Float.is_finite sol.Lp_model.objective
             && Array.for_all Float.is_finite sol.Lp_model.values ->
        Optimal (sol, `Revised basic)
      | Revised_simplex.Infeasible -> Infeasible
      | Revised_simplex.Unbounded -> Unbounded
      | Revised_simplex.Stalled | Revised_simplex.Optimal _ ->
        Metrics.incr fallbacks;
        solve_exact (Revised_simplex.to_model form))
