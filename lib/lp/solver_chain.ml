type status =
  | Optimal of Lp_model.solution * [ `Revised | `Exact ]
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
    ("engine", Trace.Str (match engine with `Revised -> "revised" | `Exact -> "exact"))
    :: ("pivots", Trace.Int sol.Lp_model.pivots)
    :: ("objective", Trace.Float sol.Lp_model.objective)
    :: size
  | Infeasible -> ("outcome", Trace.Str "infeasible") :: size
  | Unbounded -> ("outcome", Trace.Str "unbounded") :: size

(* The chain proper: [revised ()] on the float engine, then [model ()]
   on the exact one when that stalls or comes back non-finite. *)
let chain ~size ~revised ~model =
  Trace.with_span ~cat:"lp" "lp.solve"
    ~result:(fun (st, _) -> span_args (size ()) st)
    (fun () ->
      match revised () with
      | Revised_simplex.Optimal r
        when Float.is_finite r.Revised_simplex.objective
             && Array.for_all Float.is_finite r.Revised_simplex.values ->
        ( Optimal
            ( {
                Lp_model.values = r.Revised_simplex.values;
                objective = r.Revised_simplex.objective;
                row_duals = r.Revised_simplex.row_duals;
                pivots = r.Revised_simplex.pivots;
              },
              `Revised ),
          Some r )
      | Revised_simplex.Infeasible -> (Infeasible, None)
      | Revised_simplex.Unbounded -> (Unbounded, None)
      | Revised_simplex.Stalled | Revised_simplex.Optimal _ ->
        Metrics.incr fallbacks;
        (solve_exact (model ()), None))

let solve_form ?start form ~model =
  chain
    ~size:(fun () -> Revised_simplex.dims form)
    ~revised:(fun () -> Revised_simplex.solve_form ?start form)
    ~model

let solve_with_fallback ?max_iter model =
  fst
    (chain
       ~size:(fun () -> (Lp_model.n_vars model, Lp_model.n_constraints model))
       ~revised:(fun () -> Revised_simplex.solve ?max_iter model)
       ~model:(fun () -> model))
