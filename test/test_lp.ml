(* Tests for the LP layer: model builder, float simplex, exact simplex, and
   agreement between the two engines on random instances. *)

let feps = 1e-6
let check_f = Alcotest.(check (float feps))

(* The float cases run through the solver chain and must be answered by
   its first rung: no exact retry, and [`Revised] on every optimum. *)
let fallbacks = Metrics.counter "solver_chain.fallbacks"

let chain_no_retry m =
  let before = Metrics.counter_value fallbacks in
  let st = Solver_chain.solve_with_fallback m in
  Alcotest.(check int) "no exact retry" before (Metrics.counter_value fallbacks);
  st

let solve_revised m =
  match chain_no_retry m with
  | Solver_chain.Optimal (s, `Revised) -> s
  | _ -> Alcotest.fail "expected a revised-engine optimum"

(* maximize 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  (Dantzig's classic):
   optimum 36 at (2, 6). *)
let test_float_classic () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x) ] Le 4.0;
  Lp_model.add_constraint m [ (2.0, y) ] Le 12.0;
  Lp_model.add_constraint m [ (3.0, x); (2.0, y) ] Le 18.0;
  Lp_model.set_objective m ~maximize:true [ (3.0, x); (5.0, y) ];
  let s = solve_revised m in
  check_f "objective" 36.0 s.Lp_model.objective;
  check_f "x" 2.0 s.Lp_model.values.(x);
  check_f "y" 6.0 s.Lp_model.values.(y)

(* minimize with >= rows (needs phase 1): min 2x + 3y st x + y >= 4, x >= 1.
   Optimum 8 at (4, 0) since 2 < 3. *)
let test_float_phase1 () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x); (1.0, y) ] Ge 4.0;
  Lp_model.add_constraint m [ (1.0, x) ] Ge 1.0;
  Lp_model.set_objective m ~maximize:false [ (2.0, x); (3.0, y) ];
  let s = solve_revised m in
  check_f "objective" 8.0 s.Lp_model.objective;
  check_f "x" 4.0 s.Lp_model.values.(x)

let test_float_equality () =
  (* max x + y st x + y = 3, x - y = 1 -> unique point (2,1). *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x); (1.0, y) ] Eq 3.0;
  Lp_model.add_constraint m [ (1.0, x); (-1.0, y) ] Eq 1.0;
  Lp_model.set_objective m ~maximize:true [ (1.0, x); (1.0, y) ];
  let s = solve_revised m in
  check_f "objective" 3.0 s.Lp_model.objective;
  check_f "x" 2.0 s.Lp_model.values.(x);
  check_f "y" 1.0 s.Lp_model.values.(y)

let test_float_infeasible () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x) ] Le 1.0;
  Lp_model.add_constraint m [ (1.0, x) ] Ge 2.0;
  Lp_model.set_objective m ~maximize:true [ (1.0, x) ];
  match chain_no_retry m with
  | Solver_chain.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_float_unbounded () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x); (-1.0, y) ] Le 1.0;
  Lp_model.set_objective m ~maximize:true [ (1.0, x) ];
  match chain_no_retry m with
  | Solver_chain.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_float_negative_rhs () =
  (* max -x st -x >= -5  i.e. x <= 5; optimum 0 at x = 0 (x >= 0). *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m in
  Lp_model.add_constraint m [ (-1.0, x) ] Ge (-5.0);
  Lp_model.set_objective m ~maximize:true [ (1.0, x) ];
  let s = solve_revised m in
  check_f "objective" 5.0 s.Lp_model.objective

let test_float_redundant_equalities () =
  (* Linearly dependent equality rows: phase 1 ends with a redundant row
     that no structural column can take over. *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x); (1.0, y) ] Eq 3.0;
  Lp_model.add_constraint m [ (2.0, x); (2.0, y) ] Eq 6.0;
  Lp_model.set_objective m ~maximize:true [ (1.0, x) ];
  let s = solve_revised m in
  check_f "objective" 3.0 s.Lp_model.objective

let test_float_degenerate () =
  (* Highly degenerate LP (many constraints tight at the optimum). *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x); (1.0, y) ] Le 1.0;
  Lp_model.add_constraint m [ (1.0, x) ] Le 1.0;
  Lp_model.add_constraint m [ (1.0, y) ] Le 1.0;
  Lp_model.add_constraint m [ (2.0, x); (1.0, y) ] Le 2.0;
  Lp_model.add_constraint m [ (1.0, x); (2.0, y) ] Le 2.0;
  Lp_model.set_objective m ~maximize:true [ (1.0, x); (1.0, y) ];
  let s = solve_revised m in
  check_f "objective" 1.0 s.Lp_model.objective

let test_model_accessors () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m in
  Alcotest.(check int) "n_vars" 1 (Lp_model.n_vars m);
  Lp_model.add_constraint m [ (1.0, x) ] Le 2.0;
  Alcotest.(check int) "n_constraints" 1 (Lp_model.n_constraints m)

(* --- exact engine --- *)

let q = Rat.of_ints
let rat = Alcotest.testable Rat.pp Rat.equal

let test_exact_classic () =
  let rows =
    [
      ([ (Rat.one, 0) ], Lp_model.Le, Rat.of_int 4);
      ([ (Rat.of_int 2, 1) ], Lp_model.Le, Rat.of_int 12);
      ([ (Rat.of_int 3, 0); (Rat.of_int 2, 1) ], Lp_model.Le, Rat.of_int 18);
    ]
  in
  let s =
    Simplex_exact.solve_exn ~n_vars:2 ~maximize:true
      ~objective:[ (Rat.of_int 3, 0); (Rat.of_int 5, 1) ]
      rows
  in
  Alcotest.check rat "objective" (Rat.of_int 36) s.Simplex_exact.objective;
  Alcotest.check rat "x" (Rat.of_int 2) s.Simplex_exact.values.(0)

let test_exact_fractional () =
  (* max x st 3x <= 1 -> x = 1/3 exactly. *)
  let s =
    Simplex_exact.solve_exn ~n_vars:1 ~maximize:true ~objective:[ (Rat.one, 0) ]
      [ ([ (Rat.of_int 3, 0) ], Lp_model.Le, Rat.one) ]
  in
  Alcotest.check rat "x" (q 1 3) s.Simplex_exact.values.(0);
  Alcotest.check rat "objective" (q 1 3) s.Simplex_exact.objective

let test_exact_statuses () =
  (match
     Simplex_exact.solve ~n_vars:1 ~maximize:true ~objective:[ (Rat.one, 0) ]
       [
         ([ (Rat.one, 0) ], Lp_model.Le, Rat.one);
         ([ (Rat.one, 0) ], Lp_model.Ge, Rat.of_int 2);
       ]
   with
  | Simplex_exact.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible");
  match Simplex_exact.solve ~n_vars:1 ~maximize:true ~objective:[ (Rat.one, 0) ] [] with
  | Simplex_exact.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

(* --- fallback chain: stalled float solver rescued by the exact engine --- *)

(* max x st x <= 3, x >= 1. The Ge row forces a phase-1 artificial, so with
   a zero iteration budget the revised engine stalls deterministically —
   exactly the failure mode solve_with_fallback must absorb. *)
let stall_model () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x) ] Le 3.0;
  Lp_model.add_constraint m [ (1.0, x) ] Ge 1.0;
  Lp_model.set_objective m ~maximize:true [ (1.0, x) ];
  m

let test_fallback_on_stall () =
  let m = stall_model () in
  (match Revised_simplex.solve ~max_iter:0 m with
  | Revised_simplex.Stalled -> ()
  | _ -> Alcotest.fail "expected the capped revised engine to stall");
  (* The retry counts once under solver_chain.fallbacks. *)
  let before = Metrics.counter_value fallbacks in
  (match Solver_chain.solve_with_fallback ~max_iter:0 m with
  | Solver_chain.Optimal (sol, `Exact) ->
    check_f "exact objective" 3.0 sol.Lp_model.objective;
    check_f "exact x" 3.0 sol.Lp_model.values.(0)
  | Solver_chain.Optimal (_, `Revised) -> Alcotest.fail "revised engine should have stalled"
  | _ -> Alcotest.fail "fallback did not recover the optimum");
  Alcotest.(check int) "one fallback counted" (before + 1) (Metrics.counter_value fallbacks)

let test_fallback_passthrough () =
  (* A healthy model stays on the first engine of the chain... *)
  let m = stall_model () in
  (match Solver_chain.solve_with_fallback m with
  | Solver_chain.Optimal (sol, `Revised) ->
    check_f "revised objective" 3.0 sol.Lp_model.objective
  | _ -> Alcotest.fail "expected a revised-engine optimum");
  (* ...and infeasibility is never masked by the fallback. *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x) ] Le 1.0;
  Lp_model.add_constraint m [ (1.0, x) ] Ge 2.0;
  Lp_model.set_objective m ~maximize:true [ (1.0, x) ];
  match Solver_chain.solve_with_fallback ~max_iter:0 m with
  | Solver_chain.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible from the exact engine"

(* Regression (PR 8): exact-fallback solutions used to come back with
   row_duals = [||], so any consumer pricing after a fallback read off the
   end of the array. Force the fallback with a zero pivot budget and read
   a dual through it. *)
let test_fallback_duals () =
  let m = stall_model () in
  match Solver_chain.solve_with_fallback ~max_iter:0 m with
  | Solver_chain.Optimal (sol, `Exact) ->
    Alcotest.(check int) "dual per row" 2 (Array.length sol.Lp_model.row_duals);
    (* max x st x <= 3 (binding, shadow price 1), x >= 1 (slack). *)
    check_f "binding row dual" 1.0 sol.Lp_model.row_duals.(0);
    check_f "slack row dual" 0.0 sol.Lp_model.row_duals.(1)
  | _ -> Alcotest.fail "expected the exact fallback"

(* Exact duals follow the float engine's conventions: same model, same
   duals, on a mixed instance where both engines are nondegenerate. *)
let test_exact_duals_match_float () =
  let mk () =
    let m = Lp_model.create () in
    let x = Lp_model.add_var m and y = Lp_model.add_var m in
    Lp_model.add_constraint m [ (1.0, x) ] Le 4.0;
    Lp_model.add_constraint m [ (2.0, y) ] Le 12.0;
    Lp_model.add_constraint m [ (3.0, x); (2.0, y) ] Le 18.0;
    Lp_model.set_objective m ~maximize:true [ (3.0, x); (5.0, y) ];
    m
  in
  let revised = solve_revised (mk ()) in
  match Solver_chain.solve_exact (mk ()) with
  | Solver_chain.Optimal (exact, `Exact) ->
    Array.iteri
      (fun i d -> check_f (Printf.sprintf "row %d dual" i) d exact.Lp_model.row_duals.(i))
      revised.Lp_model.row_duals
  | _ -> Alcotest.fail "exact solve failed"

(* Regression (PR 8): the Bland anti-cycling latch must be one-way. The old
   controller re-armed Dantzig whenever the objective moved, so a cycle
   alternating tiny progress with degenerate stretches escaped Bland
   forever. *)
let test_bland_latch_is_one_way () =
  let module Ac = Revised_simplex.Anti_cycle in
  let ac = Ac.create 0.0 in
  for _ = 1 to Revised_simplex.stall_window + 2 do
    Ac.observe ac 0.0
  done;
  Alcotest.(check bool) "latch engages after a stall" true (Ac.bland ac);
  Ac.observe ac 1.0;
  Alcotest.(check bool) "progress does not release the latch" true (Ac.bland ac);
  (* Progress before the window fills keeps Dantzig. *)
  let ac2 = Ac.create 0.0 in
  for i = 1 to 10 * Revised_simplex.stall_window do
    Ac.observe ac2 (float_of_int i)
  done;
  Alcotest.(check bool) "improving run stays on Dantzig" false (Ac.bland ac2)

(* Regression (PR 8): the eager-eviction rule in the ratio test used a
   magic 1e-7 pivot tolerance while the rest of the engine uses
   epsilon = 1e-9. An equality row coupling x to y with a 1e-8 coefficient
   fell in the gap: its zero-valued artificial was never evicted, and the
   claimed optimum violated the equality by 1e-2. *)
let near_degenerate_model () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x); (-1e-8, y) ] Eq 0.0;
  Lp_model.add_constraint m [ (1.0, y) ] Le 1e6;
  Lp_model.set_objective m ~maximize:true [ (1.0, y) ];
  m

let check_near_degenerate name (values : float array) (objective : float) =
  Alcotest.(check (float 1e-3)) (name ^ ": objective") 1e6 objective;
  let residual = abs_float (values.(0) -. (1e-8 *. values.(1))) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: equality row satisfied (residual %.2e)" name residual)
    true (residual < 1e-6)

(* The same model through the solver chain: the revised rung must answer
   it, with no exact retry hiding a bad claimed optimum. *)
let test_tiny_pivot_eviction_chain () =
  let s = solve_revised (near_degenerate_model ()) in
  check_near_degenerate "chain" s.Lp_model.values s.Lp_model.objective

let test_tiny_pivot_eviction_revised () =
  match Revised_simplex.solve (near_degenerate_model ()) with
  | Revised_simplex.Optimal s ->
    check_near_degenerate "revised" s.Revised_simplex.values s.Revised_simplex.objective
  | _ -> Alcotest.fail "revised engine failed the near-degenerate model"

(* --- revised engine: cold correctness, warm starts, dual simplex --- *)

let test_revised_classic () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x) ] Le 4.0;
  Lp_model.add_constraint m [ (2.0, y) ] Le 12.0;
  Lp_model.add_constraint m [ (3.0, x); (2.0, y) ] Le 18.0;
  Lp_model.set_objective m ~maximize:true [ (3.0, x); (5.0, y) ];
  match Revised_simplex.solve m with
  | Revised_simplex.Optimal s ->
    check_f "objective" 36.0 s.Revised_simplex.objective;
    check_f "x" 2.0 s.Revised_simplex.values.(x);
    check_f "y" 6.0 s.Revised_simplex.values.(y);
    (* Unique primal/dual optimum: duals 0, 3/2 and 1. *)
    check_f "dual row 0" 0.0 s.Revised_simplex.row_duals.(0);
    check_f "dual row 1" 1.5 s.Revised_simplex.row_duals.(1);
    check_f "dual row 2" 1.0 s.Revised_simplex.row_duals.(2);
    Alcotest.(check int) "basis size" 3 (Array.length s.Revised_simplex.basic);
    Alcotest.(check bool) "cold solve" false s.Revised_simplex.warm_used
  | _ -> Alcotest.fail "revised engine failed the classic model"

(* Warm start across a model change that invalidates primal feasibility
   but not dual feasibility — the cut-generation shape: re-solving after
   adding a violated row must go through the dual simplex and cost fewer
   pivots than a cold solve of the extended model. *)
let warm_base_model () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x) ] Le 10.0;
  Lp_model.add_constraint m [ (1.0, y) ] Le 10.0;
  Lp_model.add_constraint m [ (1.0, x); (2.0, y) ] Le 25.0;
  Lp_model.set_objective m ~maximize:true [ (2.0, x); (1.0, y) ];
  m

let warm_extended_model () =
  let m = warm_base_model () in
  (* Cuts off the old optimum (10, 7.5): stated as Ge with negative rhs so
     it normalizes to a Le row, keeping the model artificial-free. It is
     the last row, so the base model's columns keep their indices (x, y,
     then one slack per row) and only the new row's slack is added. *)
  Lp_model.add_constraint m [ (-1.0, 0); (-1.0, 1) ] Ge (-12.0);
  m

(* A start that keeps every column index of [basic] and flags no row. *)
let same_rows basic = { Revised_simplex.basic; is_new_row = (fun _ -> false) }

let test_revised_warm_dual_resolve () =
  let base =
    match Revised_simplex.solve (warm_base_model ()) with
    | Revised_simplex.Optimal s -> s
    | _ -> Alcotest.fail "base solve failed"
  in
  check_f "base objective" 27.5 base.Revised_simplex.objective;
  let cold =
    match Revised_simplex.solve (warm_extended_model ()) with
    | Revised_simplex.Optimal s -> s
    | _ -> Alcotest.fail "cold extended solve failed"
  in
  check_f "cold extended objective" 22.0 cold.Revised_simplex.objective;
  let start =
    { Revised_simplex.basic = base.Revised_simplex.basic; is_new_row = (fun i -> i = 3) }
  in
  match Revised_simplex.solve ~start (warm_extended_model ()) with
  | Revised_simplex.Optimal warm ->
    Alcotest.(check bool) "warm path used" true warm.Revised_simplex.warm_used;
    check_f "warm extended objective" 22.0 warm.Revised_simplex.objective;
    Alcotest.(check bool)
      (Printf.sprintf "warm pivots (%d) < cold pivots (%d)" warm.Revised_simplex.pivots
         cold.Revised_simplex.pivots)
      true
      (warm.Revised_simplex.pivots < cold.Revised_simplex.pivots)
  | _ -> Alcotest.fail "warm extended solve failed"

(* A nonsense warm basis must cost only a cold restart, never a wrong
   verdict. *)
let test_revised_warm_garbage () =
  let start = same_rows [| -1; 99; 0; 0; 4; max_int; min_int |] in
  match Revised_simplex.solve ~start (warm_base_model ()) with
  | Revised_simplex.Optimal s ->
    check_f "objective unchanged" 27.5 s.Revised_simplex.objective
  | _ -> Alcotest.fail "garbage warm basis changed the verdict"

(* Warm caller on a model with equality rows: the warm path must be
   skipped (artificials present), not crash or misbehave. *)
let test_revised_warm_skipped_on_artificials () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x); (1.0, y) ] Eq 3.0;
  Lp_model.add_constraint m [ (1.0, x); (-1.0, y) ] Eq 1.0;
  Lp_model.set_objective m ~maximize:true [ (1.0, x); (1.0, y) ];
  match Revised_simplex.solve ~start:(same_rows [| x; y |]) m with
  | Revised_simplex.Optimal s ->
    check_f "objective" 3.0 s.Revised_simplex.objective;
    Alcotest.(check bool) "warm path skipped" false s.Revised_simplex.warm_used
  | _ -> Alcotest.fail "equality model failed"

(* --- Basis: sparse solves against a dense reference --- *)

(* The textbook dense kernel the sparse one must reproduce bit for bit:
   partial-pivoting LU of the header columns (first row of largest
   magnitude), triangular solves over every index, and full-length etas.
   [None] when a pivot falls to [Basis.singular_tol] or below. *)
module Dense_basis = struct
  type t = {
    m : int;
    cols : (int array * float array) array;
    header : int array;
    mutable lu : float array array;
    mutable perm : int array;
    mutable etas : (int * float array) list; (* newest first *)
  }

  let factor t =
    let m = t.m in
    let lu = Array.make_matrix m m 0.0 and perm = Array.init m Fun.id in
    Array.iteri
      (fun p j ->
        let rows, vals = t.cols.(j) in
        Array.iteri (fun k r -> lu.(r).(p) <- lu.(r).(p) +. vals.(k)) rows)
      t.header;
    let ok = ref true in
    for c = 0 to m - 1 do
      if !ok then begin
        let best = ref c in
        for r = c + 1 to m - 1 do
          if abs_float lu.(r).(c) > abs_float lu.(!best).(c) then best := r
        done;
        if abs_float lu.(!best).(c) <= Basis.singular_tol then ok := false
        else begin
          let row = lu.(c) and p = perm.(c) in
          lu.(c) <- lu.(!best);
          lu.(!best) <- row;
          perm.(c) <- perm.(!best);
          perm.(!best) <- p;
          for r = c + 1 to m - 1 do
            let f = lu.(r).(c) /. lu.(c).(c) in
            if f <> 0.0 then begin
              lu.(r).(c) <- f;
              for j = c + 1 to m - 1 do
                lu.(r).(j) <- lu.(r).(j) -. (f *. lu.(c).(j))
              done
            end
          done
        end
      end
    done;
    t.lu <- lu;
    t.perm <- perm;
    t.etas <- [];
    !ok

  let create cols header =
    let t = { m = Array.length header; cols; header = Array.copy header; lu = [||]; perm = [||]; etas = [] } in
    if factor t then Some t else None

  let ftran t b =
    let m = t.m and lu = t.lu in
    let x = Array.init m (fun i -> b.(t.perm.(i))) in
    for i = 0 to m - 1 do
      for j = 0 to i - 1 do
        x.(i) <- x.(i) -. (lu.(i).(j) *. x.(j))
      done
    done;
    for i = m - 1 downto 0 do
      for j = i + 1 to m - 1 do
        x.(i) <- x.(i) -. (lu.(i).(j) *. x.(j))
      done;
      x.(i) <- x.(i) /. lu.(i).(i)
    done;
    List.iter
      (fun (r, w) ->
        let xr = x.(r) /. w.(r) in
        if xr <> 0.0 then Array.iteri (fun i wi -> x.(i) <- x.(i) -. (wi *. xr)) w;
        x.(r) <- xr)
      (List.rev t.etas);
    x

  let btran t c =
    let m = t.m and lu = t.lu in
    let x = Array.copy c in
    List.iter
      (fun (r, w) ->
        let s = ref x.(r) in
        Array.iteri (fun i wi -> if i <> r then s := !s -. (wi *. x.(i))) w;
        x.(r) <- !s /. w.(r))
      t.etas;
    for i = 0 to m - 1 do
      for j = 0 to i - 1 do
        x.(i) <- x.(i) -. (lu.(j).(i) *. x.(j))
      done;
      x.(i) <- x.(i) /. lu.(i).(i)
    done;
    for i = m - 1 downto 0 do
      for j = i + 1 to m - 1 do
        x.(i) <- x.(i) -. (lu.(j).(i) *. x.(j))
      done
    done;
    let y = Array.make m 0.0 in
    Array.iteri (fun i p -> y.(p) <- x.(i)) t.perm;
    y

  let update t ~row ~col ~w =
    t.header.(row) <- col;
    if List.length t.etas >= Basis.refactor_interval then ignore (factor t)
    else t.etas <- (row, Array.copy w) :: t.etas
end

(* A random sparse nonsingular basis: column p carries a diagonal entry
   of magnitude 1-3 on row sigma(p) plus up to three entries in [-4, 4]
   on rows sigma(q), q < p — a row-permuted upper triangle, so the basis
   is nonsingular, while the off-diagonal magnitudes force row swaps.
   The [m] spare columns hold one to three entries anywhere; the header
   starts as the triangle. *)
let random_sparse_basis rng m =
  let sigma = Array.init m Fun.id in
  for i = m - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = sigma.(i) in
    sigma.(i) <- sigma.(j);
    sigma.(j) <- t
  done;
  let value lo hi =
    let v = lo +. Random.State.float rng (hi -. lo) in
    if Random.State.bool rng then v else -.v
  in
  let column entries =
    let entries = List.sort_uniq (fun (a, _) (b, _) -> compare a b) entries in
    (Array.of_list (List.map fst entries), Array.of_list (List.map snd entries))
  in
  let tri =
    Array.init m (fun p ->
        let extra =
          if p = 0 then []
          else List.init (Random.State.int rng 4) (fun _ -> (sigma.(Random.State.int rng p), value 0.0 4.0))
        in
        column ((sigma.(p), value 1.0 3.0) :: List.filter (fun (r, _) -> r <> sigma.(p)) extra))
  in
  let spare =
    Array.init m (fun _ ->
        column (List.init (1 + Random.State.int rng 3) (fun _ -> (Random.State.int rng m, value 0.5 2.0))))
  in
  (Array.append tri spare, Array.init m Fun.id)

(* Right-hand sides with a mix of zeros, so both dense and sparse inputs
   are covered. *)
let random_rhs rng m =
  Array.init m (fun _ -> if Random.State.int rng 3 = 0 then 0.0 else Random.State.float rng 10.0 -. 5.0)

let check_solves rng label bs reference =
  let m = Array.length (Basis.header bs) in
  for k = 1 to 3 do
    let b = random_rhs rng m in
    if Basis.ftran bs b <> Dense_basis.ftran reference b then
      Alcotest.failf "%s: ftran #%d differs from the dense solve" label k;
    if Basis.btran bs b <> Dense_basis.btran reference b then
      Alcotest.failf "%s: btran #%d differs from the dense solve" label k
  done

let test_basis_matches_dense () =
  (* Seeded bases of 3-40 rows, each driven through more eta updates than
     one refactorization interval: the solves must equal the dense ones
     exactly after [create], after every eta, and across the automatic
     refactorization at update [refactor_interval + 1]. *)
  for seed = 1 to 12 do
    let rng = Random.State.make [| seed; 4111 |] in
    let m = 3 + Random.State.int rng 38 in
    let cols, header = random_sparse_basis rng m in
    match (Basis.create ~cols ~header, Dense_basis.create cols header) with
    | Error e, _ -> Alcotest.failf "seed %d: nonsingular basis rejected: %s" seed e
    | _, None -> Alcotest.failf "seed %d: dense reference found the basis singular" seed
    | Ok bs, Some reference ->
      check_solves rng (Printf.sprintf "seed %d, fresh" seed) bs reference;
      let basic = Array.make (Array.length cols) false in
      Array.iter (fun j -> basic.(j) <- true) header;
      for u = 1 to Basis.refactor_interval + 6 do
        (* enter a random non-basic column on its largest pivot *)
        let candidates = List.filter (fun j -> not basic.(j)) (List.init (Array.length cols) Fun.id) in
        let q = List.nth candidates (Random.State.int rng (List.length candidates)) in
        let a = Array.make m 0.0 in
        let rows, vals = cols.(q) in
        Array.iteri (fun k r -> a.(r) <- a.(r) +. vals.(k)) rows;
        let w = Basis.ftran bs a in
        let row = ref 0 in
        Array.iteri (fun i x -> if abs_float x > abs_float w.(!row) then row := i) w;
        let leave = (Basis.header bs).(!row) in
        (match Basis.update bs ~row:!row ~col:q ~w with
        | Ok () -> ()
        | Error e -> Alcotest.failf "seed %d, update %d: %s" seed u e);
        Dense_basis.update reference ~row:!row ~col:q ~w;
        basic.(leave) <- false;
        basic.(q) <- true;
        check_solves rng (Printf.sprintf "seed %d, update %d" seed u) bs reference
      done
  done

let test_basis_singular () =
  (* A repeated column, and a row no header column touches. *)
  let cols = [| ([| 0; 1 |], [| 1.0; 2.0 |]); ([| 1 |], [| 1.0 |]); ([| 0 |], [| 3.0 |]) |] in
  (match Basis.create ~cols ~header:[| 0; 0 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "repeated column accepted");
  (match Basis.create ~cols ~header:[| 2; 2 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "basis with an empty row accepted");
  match Basis.create ~cols ~header:[| 0; 1 |] with
  | Error e -> Alcotest.fail e
  | Ok _ -> ()

let test_basis_tiny_pivot () =
  (* A pivot element at or below [singular_tol] is refused and leaves the
     header alone; just above it is absorbed. *)
  let cols = [| ([| 0 |], [| 1.0 |]); ([| 1 |], [| 1.0 |]); ([| 0; 1 |], [| 1.0; 1.0 |]) |] in
  let fresh () =
    match Basis.create ~cols ~header:[| 0; 1 |] with Ok bs -> bs | Error e -> Alcotest.fail e
  in
  List.iter
    (fun piv ->
      let bs = fresh () in
      match Basis.update bs ~row:1 ~col:2 ~w:[| 1.0; piv |] with
      | Ok () -> Alcotest.failf "pivot %g accepted" piv
      | Error _ -> Alcotest.(check (array int)) "header unchanged" [| 0; 1 |] (Basis.header bs))
    [ Basis.singular_tol; Basis.singular_tol /. 2.0; -.Basis.singular_tol; 0.0 ];
  let bs = fresh () in
  match Basis.update bs ~row:1 ~col:2 ~w:[| 1.0; 2.0 *. Basis.singular_tol |] with
  | Ok () -> Alcotest.(check (array int)) "header updated" [| 0; 2 |] (Basis.header bs)
  | Error e -> Alcotest.fail e

(* --- engines agree on random bounded instances --- *)

(* Random LP: maximize a non-negative objective over rows sum(coef x) <= rhs
   with non-negative coefficients and at least one binding row per variable,
   so the LP is feasible (origin) and bounded. *)
type rand_lp = {
  nv : int;
  obj : int array;
  rows_i : (int array * int) list;
}

let gen_rand_lp =
  QCheck.Gen.(
    int_range 1 4 >>= fun nv ->
    int_range 1 6 >>= fun nr ->
    let gen_row =
      array_size (return nv) (int_bound 5) >>= fun coefs ->
      int_range 1 20 >>= fun rhs -> return (coefs, rhs)
    in
    array_size (return nv) (int_range 0 9) >>= fun obj ->
    list_size (return nr) gen_row >>= fun rows ->
    (* cap every variable to keep the LP bounded *)
    let caps = List.init nv (fun v -> (Array.init nv (fun i -> if i = v then 1 else 0), 10)) in
    return { nv; obj; rows_i = rows @ caps })

let print_rand_lp lp =
  let row_str (c, r) =
    Printf.sprintf "[%s] <= %d" (String.concat "," (Array.to_list (Array.map string_of_int c))) r
  in
  Printf.sprintf "max [%s] st %s"
    (String.concat "," (Array.to_list (Array.map string_of_int lp.obj)))
    (String.concat " ; " (List.map row_str lp.rows_i))

let arb_rand_lp = QCheck.make ~print:print_rand_lp gen_rand_lp

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let model_of_rand_lp lp =
  let m = Lp_model.create () in
  let vars = Array.init lp.nv (fun _ -> Lp_model.add_var m) in
  List.iter
    (fun (coefs, rhs) ->
      let expr =
        List.filter_map
          (fun i -> if coefs.(i) <> 0 then Some (float_of_int coefs.(i), vars.(i)) else None)
          (List.init lp.nv Fun.id)
      in
      Lp_model.add_constraint m expr Le (float_of_int rhs))
    lp.rows_i;
  Lp_model.set_objective m ~maximize:true
    (List.init lp.nv (fun i -> (float_of_int lp.obj.(i), vars.(i))));
  m

(* The same LP on the exact engine: the reference every float answer is
   checked against. *)
let exact_of_rand_lp lp =
  Simplex_exact.solve_exn ~n_vars:lp.nv ~maximize:true
    ~objective:(List.init lp.nv (fun i -> (Rat.of_int lp.obj.(i), i)))
    (List.map
       (fun (coefs, rhs) ->
         ( List.filter_map
             (fun i -> if coefs.(i) <> 0 then Some (Rat.of_int coefs.(i), i) else None)
             (List.init lp.nv Fun.id),
           Lp_model.Le,
           Rat.of_int rhs ))
       lp.rows_i)

(* The solver chain answers on its revised rung, with the exact optimum. *)
let engines_agree lp =
  let exact = exact_of_rand_lp lp in
  match Solver_chain.solve_with_fallback (model_of_rand_lp lp) with
  | Solver_chain.Optimal (s, `Revised) ->
    abs_float (s.Lp_model.objective -. Rat.to_float exact.Simplex_exact.objective) < 1e-6
  | _ -> false

(* Revised vs exact vs warm-restarted-revised: the revised optimum must
   be feasible and match the exact objective, and re-solving warm from the
   revised engine's own optimal basis must stay at the optimum. *)
let revised_agrees lp =
  let exact = Rat.to_float (exact_of_rand_lp lp).Simplex_exact.objective in
  match Revised_simplex.solve (model_of_rand_lp lp) with
  | Revised_simplex.Optimal r ->
    let close a b = abs_float (a -. b) < 1e-6 *. (1.0 +. abs_float a) in
    close exact r.Revised_simplex.objective
    && List.for_all
         (fun (coefs, rhs) ->
           let lhs = ref 0.0 in
           Array.iteri
             (fun i c -> lhs := !lhs +. (float_of_int c *. r.Revised_simplex.values.(i)))
             coefs;
           !lhs <= float_of_int rhs +. 1e-6)
         lp.rows_i
    && Array.for_all (fun v -> v >= -1e-9) r.Revised_simplex.values
    &&
    let start = same_rows r.Revised_simplex.basic in
    (match Revised_simplex.solve ~start (model_of_rand_lp lp) with
    | Revised_simplex.Optimal w ->
      w.Revised_simplex.warm_used
      && close exact w.Revised_simplex.objective
      && w.Revised_simplex.pivots <= r.Revised_simplex.pivots
    | _ -> false)
  | _ -> false

(* The reference itself: its optimum satisfies every row exactly. *)
let exact_is_feasible lp =
  let s = exact_of_rand_lp lp in
  List.for_all
    (fun (coefs, rhs) ->
      let lhs = ref Rat.zero in
      Array.iteri
        (fun i c -> lhs := Rat.add !lhs (Rat.mul (Rat.of_int c) s.Simplex_exact.values.(i)))
        coefs;
      Rat.( <= ) !lhs (Rat.of_int rhs))
    lp.rows_i
  && Array.for_all (fun v -> Rat.sign v >= 0) s.Simplex_exact.values

let lp_props =
  [
    prop "float and exact engines agree" 150 arb_rand_lp engines_agree;
    prop "revised engine agrees and restarts warm" 150 arb_rand_lp revised_agrees;
    prop "optimal solutions are feasible" 150 arb_rand_lp exact_is_feasible;
  ]

let suite =
  [
    ("float: classic max", `Quick, test_float_classic);
    ("float: phase 1", `Quick, test_float_phase1);
    ("float: equalities", `Quick, test_float_equality);
    ("float: infeasible", `Quick, test_float_infeasible);
    ("float: unbounded", `Quick, test_float_unbounded);
    ("float: negative rhs", `Quick, test_float_negative_rhs);
    ("float: redundant equalities", `Quick, test_float_redundant_equalities);
    ("float: degenerate", `Quick, test_float_degenerate);
    ("model: accessors", `Quick, test_model_accessors);
    ("exact: classic", `Quick, test_exact_classic);
    ("exact: fractional optimum", `Quick, test_exact_fractional);
    ("exact: statuses", `Quick, test_exact_statuses);
    ("fallback: stalled float rescued exactly", `Quick, test_fallback_on_stall);
    ("fallback: passthrough and infeasible", `Quick, test_fallback_passthrough);
    ("fallback: exact solutions carry duals", `Quick, test_fallback_duals);
    ("exact duals match the float engine", `Quick, test_exact_duals_match_float);
    ("anti-cycle: Bland latch is one-way", `Quick, test_bland_latch_is_one_way);
    ("tiny-pivot eviction: chain", `Quick, test_tiny_pivot_eviction_chain);
    ("tiny-pivot eviction: revised", `Quick, test_tiny_pivot_eviction_revised);
    ("revised: classic with duals and basis", `Quick, test_revised_classic);
    ("revised: warm dual re-solve beats cold", `Quick, test_revised_warm_dual_resolve);
    ("revised: garbage warm basis is harmless", `Quick, test_revised_warm_garbage);
    ("revised: warm skipped on artificials", `Quick, test_revised_warm_skipped_on_artificials);
  ]
  @ lp_props
  @ [
      ("basis: sparse solves equal the dense ones", `Quick, test_basis_matches_dense);
      ("basis: singular header is an error", `Quick, test_basis_singular);
      ("basis: tiny pivot is an error", `Quick, test_basis_tiny_pivot);
    ]
