(* Tests for the LP layer: model builder, float simplex, exact simplex, and
   agreement between the two engines on random instances. *)

let feps = 1e-6
let check_f = Alcotest.(check (float feps))

(* The float cases run through the solver chain and must be answered by
   its first rung: no exact retry, and [`Revised] on every optimum. *)
let fallbacks = Metrics.counter "solver_chain.fallbacks"

(* Every solve reads a model through its standard form. *)
let chain ?max_iter m = Solver_chain.solve ?max_iter (Revised_simplex.of_model m)
let revised ?max_iter ?start m = Revised_simplex.solve ?max_iter ?start (Revised_simplex.of_model m)

(* Whether a solve started warm shows only in [lp.warm.hits]. *)
let warm_hits f =
  let before = Lp_counters.snapshot () in
  let r = f () in
  (r, (Lp_counters.since before).Lp_counters.warm_hits)

let chain_no_retry m =
  let before = Metrics.counter_value fallbacks in
  let st = chain m in
  Alcotest.(check int) "no exact retry" before (Metrics.counter_value fallbacks);
  st

let solve_revised m =
  match chain_no_retry m with
  | Solver_chain.Optimal (s, `Revised _) -> s
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
   exactly the failure mode the solver chain must absorb. *)
let stall_model () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x) ] Le 3.0;
  Lp_model.add_constraint m [ (1.0, x) ] Ge 1.0;
  Lp_model.set_objective m ~maximize:true [ (1.0, x) ];
  m

let test_fallback_on_stall () =
  let m = stall_model () in
  (match revised ~max_iter:0 m with
  | Revised_simplex.Stalled -> ()
  | _ -> Alcotest.fail "expected the capped revised engine to stall");
  (* The retry counts once under solver_chain.fallbacks. *)
  let before = Metrics.counter_value fallbacks in
  (match chain ~max_iter:0 m with
  | Solver_chain.Optimal (sol, `Exact) ->
    check_f "exact objective" 3.0 sol.Lp_model.objective;
    check_f "exact x" 3.0 sol.Lp_model.values.(0)
  | Solver_chain.Optimal (_, `Revised _) -> Alcotest.fail "revised engine should have stalled"
  | _ -> Alcotest.fail "fallback did not recover the optimum");
  Alcotest.(check int) "one fallback counted" (before + 1) (Metrics.counter_value fallbacks)

let test_fallback_passthrough () =
  (* A healthy model stays on the first engine of the chain... *)
  let m = stall_model () in
  (match chain m with
  | Solver_chain.Optimal (sol, `Revised _) ->
    check_f "revised objective" 3.0 sol.Lp_model.objective
  | _ -> Alcotest.fail "expected a revised-engine optimum");
  (* ...and infeasibility is never masked by the fallback. *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x) ] Le 1.0;
  Lp_model.add_constraint m [ (1.0, x) ] Ge 2.0;
  Lp_model.set_objective m ~maximize:true [ (1.0, x) ];
  match chain ~max_iter:0 m with
  | Solver_chain.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible from the exact engine"

(* Regression (PR 8): exact-fallback solutions used to come back with
   row_duals = [||], so any consumer pricing after a fallback read off the
   end of the array. Force the fallback with a zero pivot budget and read
   a dual through it. *)
let test_fallback_duals () =
  let m = stall_model () in
  match chain ~max_iter:0 m with
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
  match revised (near_degenerate_model ()) with
  | Revised_simplex.Optimal (s, _) ->
    check_near_degenerate "revised" s.Lp_model.values s.Lp_model.objective
  | _ -> Alcotest.fail "revised engine failed the near-degenerate model"

(* --- revised engine: cold correctness, warm starts, dual simplex --- *)

let test_revised_classic () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x) ] Le 4.0;
  Lp_model.add_constraint m [ (2.0, y) ] Le 12.0;
  Lp_model.add_constraint m [ (3.0, x); (2.0, y) ] Le 18.0;
  Lp_model.set_objective m ~maximize:true [ (3.0, x); (5.0, y) ];
  match warm_hits (fun () -> revised m) with
  | Revised_simplex.Optimal (s, basic), hits ->
    check_f "objective" 36.0 s.Lp_model.objective;
    check_f "x" 2.0 s.Lp_model.values.(x);
    check_f "y" 6.0 s.Lp_model.values.(y);
    (* Unique primal/dual optimum: duals 0, 3/2 and 1. *)
    check_f "dual row 0" 0.0 s.Lp_model.row_duals.(0);
    check_f "dual row 1" 1.5 s.Lp_model.row_duals.(1);
    check_f "dual row 2" 1.0 s.Lp_model.row_duals.(2);
    Alcotest.(check int) "basis size" 3 (Array.length basic);
    Alcotest.(check int) "cold solve" 0 hits
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
  let base, base_basic =
    match revised (warm_base_model ()) with
    | Revised_simplex.Optimal (s, basic) -> (s, basic)
    | _ -> Alcotest.fail "base solve failed"
  in
  check_f "base objective" 27.5 base.Lp_model.objective;
  let cold =
    match revised (warm_extended_model ()) with
    | Revised_simplex.Optimal (s, _) -> s
    | _ -> Alcotest.fail "cold extended solve failed"
  in
  check_f "cold extended objective" 22.0 cold.Lp_model.objective;
  let start = { Revised_simplex.basic = base_basic; is_new_row = (fun i -> i = 3) } in
  match warm_hits (fun () -> revised ~start (warm_extended_model ())) with
  | Revised_simplex.Optimal (warm, _), hits ->
    Alcotest.(check int) "warm path used" 1 hits;
    check_f "warm extended objective" 22.0 warm.Lp_model.objective;
    Alcotest.(check bool)
      (Printf.sprintf "warm pivots (%d) < cold pivots (%d)" warm.Lp_model.pivots
         cold.Lp_model.pivots)
      true
      (warm.Lp_model.pivots < cold.Lp_model.pivots)
  | _ -> Alcotest.fail "warm extended solve failed"

(* A nonsense warm basis must cost only a cold restart, never a wrong
   verdict. *)
let test_revised_warm_garbage () =
  let start = same_rows [| -1; 99; 0; 0; 4; max_int; min_int |] in
  match revised ~start (warm_base_model ()) with
  | Revised_simplex.Optimal (s, _) -> check_f "objective unchanged" 27.5 s.Lp_model.objective
  | _ -> Alcotest.fail "garbage warm basis changed the verdict"

(* Warm caller on a model with equality rows: the warm path must be
   skipped (artificials present), not crash or misbehave. *)
let test_revised_warm_skipped_on_artificials () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x); (1.0, y) ] Eq 3.0;
  Lp_model.add_constraint m [ (1.0, x); (-1.0, y) ] Eq 1.0;
  Lp_model.set_objective m ~maximize:true [ (1.0, x); (1.0, y) ];
  match warm_hits (fun () -> revised ~start:(same_rows [| x; y |]) m) with
  | Revised_simplex.Optimal (s, _), hits ->
    check_f "objective" 3.0 s.Lp_model.objective;
    Alcotest.(check int) "warm path skipped" 0 hits
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
   starts as the triangle. [magnitude rng lo hi] draws each entry's
   magnitude from [lo, hi]. *)
let random_sparse_basis ~magnitude rng m =
  let sigma = Array.init m Fun.id in
  for i = m - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = sigma.(i) in
    sigma.(i) <- sigma.(j);
    sigma.(j) <- t
  done;
  let value lo hi =
    let v = magnitude rng lo hi in
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

let real_magnitude rng lo hi = lo +. Random.State.float rng (hi -. lo)

(* Entries as the LP's bases carry them: mostly 1, else 2, so pivot
   candidates tie on magnitude all the time and the tie-break decides. *)
let integer_magnitude rng _ _ = if Random.State.int rng 4 = 0 then 2.0 else 1.0

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

let same_bits x y =
  Array.length x = Array.length y
  && Array.for_all2 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b) x y

(* Factor [header] with both kernels and drive them through [updates]
   eta updates: the solves must equal the dense ones exactly after
   [create], after every eta, across the automatic refactorization at
   update [refactor_interval + 1] and across the explicit one after
   update [refactor_interval + 2]. A solution of B x = b carried by
   [Basis.advance], or solved afresh when an update or [refactor]
   rebuilt the factors, must equal [Basis.ftran bs b] bit for bit
   throughout (signs of zeros included). *)
let drive_against_dense rng label cols header ~updates =
  let m = Array.length header in
  match (Basis.create ~cols ~header, Dense_basis.create cols header) with
  | Error e, _ -> Alcotest.failf "%s: nonsingular basis rejected: %s" label e
  | _, None -> Alcotest.failf "%s: dense reference found the basis singular" label
  | Ok bs, Some reference ->
    check_solves rng (label ^ ", fresh") bs reference;
    let b = random_rhs (Random.State.copy rng) m in
    let x = ref (Basis.ftran bs b) in
    let basic = Array.make (Array.length cols) false in
    Array.iter (fun j -> basic.(j) <- true) header;
    for u = 1 to updates do
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
      | Error e -> Alcotest.failf "%s, update %d: %s" label u e);
      Dense_basis.update reference ~row:!row ~col:q ~w;
      basic.(leave) <- false;
      basic.(q) <- true;
      let advanced = Basis.advance bs !x in
      if advanced <> (u <> Basis.refactor_interval + 1) then
        Alcotest.failf "%s, update %d: advance returned %b" label u advanced;
      if not advanced then x := Basis.ftran bs b;
      if u = Basis.refactor_interval + 2 then begin
        (match Basis.refactor bs with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s, refactor after update %d: %s" label u e);
        ignore (Dense_basis.factor reference);
        x := Basis.ftran bs b
      end;
      check_solves rng (Printf.sprintf "%s, update %d" label u) bs reference;
      if not (same_bits !x (Basis.ftran bs b)) then
        Alcotest.failf "%s, update %d: carried x_B differs from a fresh FTRAN" label u
    done

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let test_basis_matches_dense () =
  (* Seeded bases of 3-40 rows with real entries. *)
  for seed = 1 to 12 do
    let rng = Random.State.make [| seed; 4111 |] in
    let m = 3 + Random.State.int rng 38 in
    let cols, header = random_sparse_basis ~magnitude:real_magnitude rng m in
    drive_against_dense rng (Printf.sprintf "seed %d" seed) cols header
      ~updates:(Basis.refactor_interval + 6)
  done;
  (* Entries of magnitude 1 and 2 on 3-60 rows, then on a basis as large
     as the biggest the LP meets (586 rows), its columns shuffled so that
     several unpivoted rows compete from the first factorization on:
     exact ties for the pivot, where the winner is the tied row first in
     the current (swapped) row order, not the one with the lowest
     original index. *)
  List.iter
    (fun (seed, m, updates) ->
      let rng = Random.State.make [| seed; 4127 |] in
      let m = match m with Some m -> m | None -> 3 + Random.State.int rng 58 in
      let cols, header = random_sparse_basis ~magnitude:integer_magnitude rng m in
      shuffle rng header;
      drive_against_dense rng (Printf.sprintf "integer seed %d" seed) cols header ~updates)
    (List.init 16 (fun s -> (s + 1, None, Basis.refactor_interval + 6))
    @ [ (17, Some 240, Basis.refactor_interval + 2); (18, Some 600, Basis.refactor_interval + 2) ])

let test_basis_dependent_column () =
  let refused label cols header =
    match (Basis.create ~cols ~header, Dense_basis.create cols header) with
    | Error _, None -> ()
    | Ok _, _ -> Alcotest.failf "%s: dependent column accepted" label
    | Error _, Some _ -> Alcotest.failf "%s: dense reference factored the basis" label
  in
  (* A header column that is 0.1 times one earlier column plus a third
     of another, in a shuffled header so that the earlier pivots leave
     multipliers: it eliminates to zero on the rows still unpivoted. *)
  for seed = 1 to 12 do
    let rng = Random.State.make [| seed; 4133 |] in
    let m = 4 + Random.State.int rng 57 in
    let cols, header = random_sparse_basis ~magnitude:integer_magnitude rng m in
    shuffle rng header;
    let p = 2 + Random.State.int rng (m - 2) in
    let p1 = Random.State.int rng p in
    let p2 = (p1 + 1 + Random.State.int rng (p - 1)) mod p in
    let sum = Array.make m 0.0 in
    List.iter
      (fun (q, coef) ->
        let rows, vals = cols.(header.(q)) in
        Array.iteri (fun k r -> sum.(r) <- sum.(r) +. (coef *. vals.(k))) rows)
      [ (p1, 0.1); (p2, 1.0 /. 3.0) ];
    let rows = List.filter (fun r -> sum.(r) <> 0.0) (List.init m Fun.id) in
    let dependent = (Array.of_list rows, Array.of_list (List.map (fun r -> sum.(r)) rows)) in
    let cols = Array.append cols [| dependent |] in
    header.(p) <- Array.length cols - 1;
    refused (Printf.sprintf "seed %d, column %d" seed p) cols header
  done;
  (* One that leaves a nonzero pivot of 1e-13, below [singular_tol]. *)
  refused "near-dependent"
    [| ([| 0; 1 |], [| 1.0; 1.0 |]); ([| 0; 1 |], [| 1.0; 1.0 +. 1e-13 |]) |]
    [| 0; 1 |]

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

(* --- the engine against the one kept in revised_reference.ml --- *)

(* A seeded LP in le_form's shape: [n] columns of one to four positive
   entries on [m] rows, a positive objective, and rhs in [1, 10], a fifth
   of them 0 (primal degenerate). Half the LPs have every entry and cost
   1 (dual degenerate: ties everywhere); the others a third of their
   entries 1 and costs in 1..5. Every column has an entry, so the LP is
   bounded. *)
let random_le_lp rng ~m ~n =
  let unit = Random.State.bool rng in
  let entry () = if unit || Random.State.int rng 3 = 0 then 1.0 else 0.5 +. Random.State.float rng 2.5 in
  let cols =
    Array.init n (fun _ ->
        let rows = List.sort_uniq compare (List.init (1 + Random.State.int rng 4) (fun _ -> Random.State.int rng m)) in
        (Array.of_list rows, Array.of_list (List.map (fun _ -> entry ()) rows)))
  in
  let objective = List.init n (fun j -> ((if unit then 1.0 else 1.0 +. Float.of_int (Random.State.int rng 5)), j)) in
  let rhs = Array.init m (fun _ -> if Random.State.int rng 5 = 0 then 0.0 else 1.0 +. Random.State.float rng 9.0) in
  (objective, cols, rhs)

(* Both engines on one program and start: both optimal, with the same
   values, objective, row duals, pivots and basis, bit for bit. Returns
   the optimum and its basis, and whether the engine under test started
   warm. *)
let engines_match label ?start ~objective ~cols ~rhs () =
  let (mine, warm), theirs =
    ( warm_hits (fun () ->
          Revised_simplex.solve
            ?start:(Option.map (fun (basic, is_new_row) -> { Revised_simplex.basic; is_new_row }) start)
            (Revised_simplex.le_form ~objective ~cols ~rhs)),
      Revised_reference.solve
        ?start:(Option.map (fun (basic, is_new_row) -> { Revised_reference.basic; is_new_row }) start)
        (Revised_reference.le_form ~objective ~cols ~rhs) )
  in
  match (mine, theirs) with
  | Revised_simplex.Optimal (s, basic), Revised_reference.Optimal (r, basic') ->
    let fail what = Alcotest.failf "%s: %s differ from the reference engine's" label what in
    if not (same_bits s.Lp_model.values r.Lp_model.values) then fail "values";
    if not (same_bits [| s.Lp_model.objective |] [| r.Lp_model.objective |]) then fail "objectives";
    if not (same_bits s.Lp_model.row_duals r.Lp_model.row_duals) then fail "row duals";
    if s.Lp_model.pivots <> r.Lp_model.pivots then fail "pivots";
    if basic <> basic' then fail "bases";
    (s, basic, warm > 0)
  | _ -> Alcotest.failf "%s: not both optimal" label

(* Cold solves, warm re-solves after the rhs moved (an epoch's
   re-solve) and warm re-solves after cut rows were appended, flagged
   new (a cut round): the engine must reproduce the reference engine bit
   for bit. The sweep must reach the dual's Bland latch (seen as a warm
   re-solve of at least [m] pivots, which in this sweep always latches) and
   the 64-eta refactorization (a solve of more than
   [Basis.refactor_interval] pivots). *)
let test_revised_matches_reference () =
  let latched = ref 0 and refactored = ref 0 in
  for seed = 1 to 100 do
    let rng = Random.State.make [| seed; 4153 |] in
    let m = if seed mod 4 = 0 then 70 + Random.State.int rng 30 else 2 + Random.State.int rng 6 in
    let n = m + Random.State.int rng (2 * m) in
    let objective, cols, rhs = random_le_lp rng ~m ~n in
    let label = Printf.sprintf "seed %d" seed in
    let note ~rows (s, _, warm) =
      let pivots = s.Lp_model.pivots in
      if warm && pivots >= rows then incr latched;
      if pivots > Basis.refactor_interval then incr refactored
    in
    let ((optimum, basic, _) as cold) = engines_match (label ^ ", cold") ~objective ~cols ~rhs () in
    note ~rows:m cold;
    (* rhs moved: half the rows redrawn *)
    let rhs' = Array.map (fun r -> if Random.State.bool rng then Random.State.float rng 10.0 else r) rhs in
    note ~rows:m
      (engines_match (label ^ ", rhs moved") ~start:(basic, fun _ -> false) ~objective ~cols
         ~rhs:rhs' ());
    (* up to m + 1 cut rows over a few structural columns each, rhs a
       fifth of their activity at the optimum, appended after the old
       rows *)
    let k = 1 + Random.State.int rng (1 + m) in
    let values = optimum.Lp_model.values in
    let extra = Array.make n [] in
    let cut_rhs =
      Array.init k (fun c ->
          let activity = ref 0.0 in
          List.iter
            (fun j ->
              if not (List.mem_assoc (m + c) extra.(j)) then begin
                let v = 0.5 +. Random.State.float rng 1.5 in
                extra.(j) <- (m + c, v) :: extra.(j);
                activity := !activity +. (v *. values.(j))
              end)
            (List.init (2 + Random.State.int rng 5) (fun _ -> Random.State.int rng n));
          0.2 *. !activity)
    in
    let cols' =
      Array.mapi
        (fun j (rows, vals) ->
          let more = List.rev extra.(j) in
          (Array.append rows (Array.of_list (List.map fst more)), Array.append vals (Array.of_list (List.map snd more))))
        cols
    in
    note ~rows:(m + k)
      (engines_match (label ^ ", rows added") ~start:(basic, fun i -> i >= m) ~objective ~cols:cols'
         ~rhs:(Array.append rhs cut_rhs) ())
  done;
  if !latched = 0 then Alcotest.fail "no warm re-solve reached the Bland latch";
  if !refactored = 0 then Alcotest.fail "no solve reached the 64-eta refactorization"

(* --- Basis.warm against the reference engine's repair --- *)

let factorizations = Metrics.counter "lp.factorizations"
let rank_deficient = Metrics.counter "lp.warm.rank_deficient"

(* One warm start of an le_form program with structural columns [cols]
   and [m] rows: [Basis.warm] must return the header the reference
   engine's [repair] picks, count one factorization, and solve as
   [Basis.create] on that header does, bit for bit. Returns the header
   and whether the start took the second pass. *)
let check_warm label ~cols ~m ~basic ~is_new_row =
  let std = Revised_reference.le_form ~objective:[] ~cols ~rhs:(Array.make m 0.0) in
  let resolved = Revised_reference.resolve_indices std basic in
  let forced =
    List.filter_map
      (fun i -> if is_new_row i then Some std.Revised_reference.slack_of_row.(i) else None)
      (List.init m Fun.id)
  in
  let all_cols = std.Revised_reference.cols in
  let f0 = Metrics.counter_value factorizations and r0 = Metrics.counter_value rank_deficient in
  let warm =
    Basis.warm ~cols:all_cols ~forced ~candidates:resolved
      ~slack_of_row:std.Revised_reference.slack_of_row
  in
  if Metrics.counter_value factorizations <> f0 + 1 then
    Alcotest.failf "%s: not one factorization" label;
  match (warm, Revised_reference.repair std resolved ~is_new_row) with
  | Ok bs, Some header -> (
    if Basis.header bs <> header then Alcotest.failf "%s: not the reference header" label;
    match Basis.create ~cols:all_cols ~header:(Array.copy header) with
    | Error e -> Alcotest.failf "%s: create: %s" label e
    | Ok fresh ->
      let b = Array.init m (fun i -> Float.of_int ((i * 7 mod 11) - 3)) in
      if not (same_bits (Basis.ftran bs b) (Basis.ftran fresh b)) then
        Alcotest.failf "%s: ftran differs from create's" label;
      if not (same_bits (Basis.btran bs b) (Basis.btran fresh b)) then
        Alcotest.failf "%s: btran differs from create's" label;
      (header, Metrics.counter_value rank_deficient > r0))
  | Error e, _ -> Alcotest.failf "%s: %s" label e
  | Ok _, None -> Alcotest.failf "%s: the reference found no header" label

(* A start's column as recorded: a structural column, or the slack of a
   recorded row. *)
type start_entry = Col of int | Slack_of of int

(* The recorded starts of test/warm_ports.txt (its header gives the
   format), each as (structural columns, row count, start, new rows). *)
let recorded_warm_starts () =
  let int = int_of_string in
  let values = ref [||] and rows = Hashtbl.create 4096 in
  let ids = ref [||] and nv = ref 0 and start = ref [||] and starts = ref [] in
  let entry e =
    match String.index_opt e '=' with
    | Some k -> (int (String.sub e 0 k), !values.(int (String.sub e (k + 1) (String.length e - k - 1))))
    | None when String.ends_with ~suffix:"+" e -> (int (String.sub e 0 (String.length e - 1)), 1.0)
    | None -> (int e, -1.0)
  in
  let token prev t =
    match t.[0] with
    | '@' -> Scanf.sscanf t "@%d,%d" (fun i n -> Array.sub prev i n)
    | 's' -> [| Slack_of (int (String.sub t 1 (String.length t - 1))) |]
    | _ -> [| Col (int t) |]
  in
  let program new_rows =
    let ids = !ids and nv = !nv in
    let m = Array.length ids in
    let cols = Array.make nv [] and row_of = Hashtbl.create m in
    for i = m - 1 downto 0 do
      Hashtbl.replace row_of ids.(i) i;
      List.iter (fun (j, v) -> cols.(j) <- (i, v) :: cols.(j)) (Hashtbl.find rows ids.(i))
    done;
    let cols = Array.map (fun l -> (Array.of_list (List.map fst l), Array.of_list (List.map snd l))) cols in
    let basic = Array.map (function Col j -> j | Slack_of r -> nv + Hashtbl.find row_of r) !start in
    let is_new = Array.make m false in
    List.iter
      (fun r -> Scanf.sscanf r "%d-%d" (fun a b -> Array.fill is_new a (b - a + 1) true))
      new_rows;
    (cols, m, basic, is_new)
  in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | "v" :: xs -> values := Array.of_list (List.map float_of_string xs)
      | "r" :: es -> Hashtbl.replace rows (Hashtbl.length rows) (List.map entry es)
      | "p" :: n :: front :: back :: mid ->
        let prev = !ids and back = int back in
        nv := int n;
        ids :=
          Array.concat
            [
              Array.sub prev 0 (int front);
              Array.of_list (List.map int mid);
              Array.sub prev (Array.length prev - back) back;
            ]
      | "b" :: ts ->
        let prev = !start in
        start := Array.concat (List.map (token prev) ts)
      | "n" :: new_rows -> starts := program new_rows :: !starts
      | _ -> ())
    (String.split_on_char '\n' Warm_ports.text);
  List.rev !starts

(* The 609 warm starts of the cut-loop digest sweep: 11 leave a shared row
   to a slack, so the second pass is exercised too. *)
let test_warm_recorded () =
  let starts = recorded_warm_starts () in
  Alcotest.(check int) "recorded warm starts" 609 (List.length starts);
  let deficient =
    List.mapi
      (fun k (cols, m, basic, is_new) ->
        snd (check_warm (Printf.sprintf "start %d" k) ~cols ~m ~basic ~is_new_row:(Array.get is_new)))
      starts
  in
  Alcotest.(check int) "rank-deficient starts" 11 (List.length (List.filter Fun.id deficient))

(* Hand-built starts, each over the columns [cols] of a program of [m]
   rows (structural columns 0..n-1, slack of row i at n + i). *)
let test_warm_hand_built () =
  let case label ~cols ~m ~basic ~new_rows ~expect ~deficient =
    let header, second_pass = check_warm label ~cols ~m ~basic ~is_new_row:(fun i -> List.mem i new_rows) in
    Alcotest.(check (array int)) (label ^ ": header") expect header;
    Alcotest.(check bool) (label ^ ": second pass") deficient second_pass
  in
  let x = ([| 0; 1; 2 |], [| 1.0; 2.0; 3.0 |]) and y = ([| 1; 2 |], [| 1.0; 1.0 |]) in
  case "no candidates" ~cols:[| x; y |] ~m:3 ~basic:[||] ~new_rows:[] ~expect:[| 2; 3; 4 |]
    ~deficient:true;
  case "all slacks new" ~cols:[| x; y |] ~m:3 ~basic:[| 0; 1 |] ~new_rows:[ 0; 1; 2 ]
    ~expect:[| 2; 3; 4 |] ~deficient:false;
  (* 2x is dependent on x: dropped, and row 0 is left to its slack *)
  let x2 = ([| 0; 1; 2 |], [| 2.0; 4.0; 6.0 |]) in
  case "dependent candidate" ~cols:[| x; x2; y |] ~m:3 ~basic:[| 0; 1; 2 |] ~new_rows:[]
    ~expect:[| 0; 2; 3 |] ~deficient:true;
  (* z's pivot left after x is 5e-10, at most 1e-9: dropped, though it is
     above the singular tolerance of a fixed header *)
  let z = ([| 0; 1; 2 |], [| 1.0; 2.0; 3.0 +. 5e-10 |]) in
  case "pivot below 1e-9" ~cols:[| x; z; y |] ~m:3 ~basic:[| 0; 1; 2 |] ~new_rows:[]
    ~expect:[| 0; 2; 3 |] ~deficient:true;
  (* the slack of new row 2 is also a candidate: it keeps its forced
     position and its candidate copy is dropped *)
  case "candidate equal to a forced slack" ~cols:[| x; y |] ~m:3 ~basic:[| 4; 0; 1 |]
    ~new_rows:[ 2 ] ~expect:[| 4; 0; 1 |] ~deficient:false;
  (* u pivots on row 2, moving row 0 to position 2; w ties rows 0 and 1,
     the factorization's order prefers row 1 and the row index row 0, so
     only the second pass leaves row 1 to its slack as repair does *)
  let w = ([| 0; 1 |], [| 1.0; 1.0 |]) and u = ([| 1; 2 |], [| 1.0; 2.0 |]) in
  case "tie rules differ" ~cols:[| u; w |] ~m:3 ~basic:[| 0; 1 |] ~new_rows:[]
    ~expect:[| 0; 1; 3 |] ~deficient:true

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

(* A model on the exact engine, every coefficient converted exactly. *)
let exact_of_model m =
  let maximize, obj = Lp_model.objective m in
  let conv = List.map (fun (c, v) -> (Rat.of_float_exact c, v)) in
  Simplex_exact.solve_exn ~n_vars:(Lp_model.n_vars m) ~maximize ~objective:(conv obj)
    (Array.to_list
       (Array.map
          (fun (expr, cmp, rhs) -> (conv expr, cmp, Rat.of_float_exact rhs))
          (Lp_model.rows m)))

let same_exact (a : Simplex_exact.solution) (b : Simplex_exact.solution) =
  Rat.equal a.objective b.objective
  && Array.for_all2 Rat.equal a.values b.values
  && Array.for_all2 Rat.equal a.row_duals b.row_duals

(* What the exact rung of the chain solves for [m]. *)
let round_trip m = Revised_simplex.to_model (Revised_simplex.of_model m)

(* [m] with every odd row stated negated, as [Ge] with a negative rhs:
   the shape of a Multicast-LB cut row. *)
let negate_odd_rows m =
  let m' = Lp_model.create () in
  for _ = 1 to Lp_model.n_vars m do
    ignore (Lp_model.add_var m')
  done;
  Array.iteri
    (fun i (expr, cmp, rhs) ->
      if i mod 2 = 0 then Lp_model.add_constraint m' expr cmp rhs
      else Lp_model.add_constraint m' (List.map (fun (c, v) -> (-.c, v)) expr) Ge (-.rhs))
    (Lp_model.rows m);
  let maximize, obj = Lp_model.objective m in
  Lp_model.set_objective m' ~maximize obj;
  m'

(* The solver chain answers on its revised rung, with the exact optimum;
   and its exact rung, reading the standard form back, solves the very
   program it was given, negated rows included. *)
let engines_agree lp =
  let exact = exact_of_rand_lp lp in
  let m = model_of_rand_lp lp in
  (match chain m with
  | Solver_chain.Optimal (s, `Revised _) ->
    abs_float (s.Lp_model.objective -. Rat.to_float exact.Simplex_exact.objective) < 1e-6
  | _ -> false)
  && List.for_all
       (fun m -> same_exact (exact_of_model m) (exact_of_model (round_trip m)))
       [ m; negate_odd_rows m ]

(* Revised vs exact vs warm-restarted-revised: the revised optimum must
   be feasible and match the exact objective, and re-solving warm from the
   revised engine's own optimal basis must stay at the optimum. *)
let revised_agrees lp =
  let exact = Rat.to_float (exact_of_rand_lp lp).Simplex_exact.objective in
  match revised (model_of_rand_lp lp) with
  | Revised_simplex.Optimal (r, basic) ->
    let close a b = abs_float (a -. b) < 1e-6 *. (1.0 +. abs_float a) in
    close exact r.Lp_model.objective
    && List.for_all
         (fun (coefs, rhs) ->
           let lhs = ref 0.0 in
           Array.iteri
             (fun i c -> lhs := !lhs +. (float_of_int c *. r.Lp_model.values.(i)))
             coefs;
           !lhs <= float_of_int rhs +. 1e-6)
         lp.rows_i
    && Array.for_all (fun v -> v >= -1e-9) r.Lp_model.values
    &&
    (match warm_hits (fun () -> revised ~start:(same_rows basic) (model_of_rand_lp lp)) with
    | Revised_simplex.Optimal (w, _), hits ->
      hits = 1 && close exact w.Lp_model.objective && w.Lp_model.pivots <= r.Lp_model.pivots
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

(* --- the exact rung reads the float engine's standard form --- *)

(* Le, Ge and Eq rows, two of them with a negative rhs: [to_model] holds
   each row normalized, with the comparison its slack names, and the
   exact engine solves it to the same rationals as the model itself. *)
let test_to_model_mixed_rows () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m and z = Lp_model.add_var m in
  Lp_model.add_constraint m [ (1.0, x); (1.0, y); (1.0, z) ] Le 4.0;
  Lp_model.add_constraint m [ (1.0, x); (-1.0, y) ] Ge (-1.0);
  Lp_model.add_constraint m [ (1.0, x); (1.0, z) ] Ge 1.0;
  Lp_model.add_constraint m [ (1.0, y); (-1.0, z) ] Eq 1.0;
  Lp_model.add_constraint m [ (-1.0, x); (-2.0, z) ] Le (-0.5);
  Lp_model.set_objective m ~maximize:true [ (1.0, x); (2.0, y) ];
  let back = round_trip m in
  Alcotest.(check int) "variables" 3 (Lp_model.n_vars back);
  Alcotest.(check (list string))
    "normalized comparisons" [ "Le"; "Le"; "Ge"; "Eq"; "Ge" ]
    (Array.to_list
       (Array.map
          (fun (_, cmp, _) ->
            match cmp with Lp_model.Le -> "Le" | Ge -> "Ge" | Eq -> "Eq")
          (Lp_model.rows back)));
  Alcotest.(check (list (float 0.0)))
    "normalized rhs" [ 4.0; 1.0; 1.0; 1.0; 0.5 ]
    (Array.to_list (Array.map (fun (_, _, rhs) -> rhs) (Lp_model.rows back)));
  let a = exact_of_model m and b = exact_of_model back in
  Alcotest.check rat "objective" a.Simplex_exact.objective b.Simplex_exact.objective;
  Alcotest.(check bool) "same exact solution" true (same_exact a b)

(* A Multicast-LB round in miniature: rho and two edge occupations, port
   rows, and two cut rows. The form holds each cut as rho - n_e <= nudge;
   a stalled float rung hands it to the exact engine, which must find
   the optimum of the rows as the cut loop used to write them for it,
   -rho + n_e >= -nudge. *)
let test_to_model_cut_rows () =
  let nudges = [| 0.25; 0.125 |] in
  let closure = Lp_model.create () in
  let rho = Lp_model.add_var closure in
  let n = Array.init 2 (fun _ -> Lp_model.add_var closure) in
  Lp_model.add_constraint closure [ (2.0, n.(0)); (3.0, n.(1)) ] Le 1.0;
  Lp_model.add_constraint closure [ (1.0, n.(0)) ] Le 1.0;
  Lp_model.add_constraint closure [ (1.0, n.(1)) ] Le 1.0;
  Array.iteri
    (fun k nudge -> Lp_model.add_constraint closure [ (-1.0, rho); (1.0, n.(k)) ] Ge (-.nudge))
    nudges;
  Lp_model.set_objective closure ~maximize:true [ (1.0, rho) ];
  let form =
    Revised_simplex.le_form ~objective:[ (1.0, 0) ]
      ~cols:
        [|
          ([| 3; 4 |], [| 1.0; 1.0 |]);
          ([| 0; 1; 3 |], [| 2.0; 1.0; -1.0 |]);
          ([| 0; 2; 4 |], [| 3.0; 1.0; -1.0 |]);
        |]
      ~rhs:[| 1.0; 1.0; 1.0; nudges.(0); nudges.(1) |]
  in
  let reference = exact_of_model closure in
  Alcotest.check rat "hand-checked optimum" (q 3 8) reference.Simplex_exact.objective;
  match Solver_chain.solve ~max_iter:0 form with
  | Solver_chain.Optimal (sol, `Exact) ->
    let floats a = Array.to_list (Array.map Rat.to_float a) in
    Alcotest.(check (float 0.0))
      "objective" (Rat.to_float reference.Simplex_exact.objective) sol.Lp_model.objective;
    Alcotest.(check (list (float 0.0)))
      "values" (floats reference.Simplex_exact.values) (Array.to_list sol.Lp_model.values);
    Alcotest.(check (list (float 0.0)))
      "duals" (floats reference.Simplex_exact.row_duals) (Array.to_list sol.Lp_model.row_duals)
  | Solver_chain.Optimal (_, `Revised _) -> Alcotest.fail "the capped float rung answered"
  | _ -> Alcotest.fail "expected the exact rung's optimum"

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
    ("to_model: mixed rows solve the same program", `Quick, test_to_model_mixed_rows);
    ("to_model: exact rung solves the cut rows", `Quick, test_to_model_cut_rows);
  ]
  @ lp_props
  @ [
      ("basis: sparse solves equal the dense ones", `Quick, test_basis_matches_dense);
      ("basis: a dependent column is singular in both kernels", `Quick, test_basis_dependent_column);
      ("basis: singular header is an error", `Quick, test_basis_singular);
      ("basis: tiny pivot is an error", `Quick, test_basis_tiny_pivot);
      ("revised: bit for bit the reference engine", `Quick, test_revised_matches_reference);
      ("basis: warm starts of the cut loop give repair's header", `Quick, test_warm_recorded);
      ("basis: hand-built warm starts", `Quick, test_warm_hand_built);
    ]
