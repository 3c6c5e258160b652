(* Revised primal/dual simplex over a sparse column-major model.

   Standard form: rows normalized to rhs >= 0, one slack/surplus column
   per inequality, one artificial per Ge/Eq row, internal minimization
   with maximization handled by a sign flip. Instead of a dense tableau
   we keep only the basis header plus an LU factorization with eta
   updates (Basis). A primal iteration BTRANs y = B^-T c_B, prices
   reduced costs against the sparse columns, and FTRANs the entering
   column; a dual iteration BTRANs the leaving row and carries the
   reduced costs through the ratio step. x_B = B^-1 b is carried across
   pivots through the newest eta ([Basis.advance]), which is bit for bit
   a fresh FTRAN of b, and is solved afresh only when the basis was
   refactorized. The factors and etas are stored sparsely, so a solve
   costs O(m + nnz(L + U) + nnz(etas)) and a pivot O(m + nnz(A) + those
   nonzeros) instead of the O(m * n) of a dense tableau — and, the point
   of the exercise, the basis is a first-class value that can seed a
   re-solve of a related model.

   Warm starts: an optimal solution exports its basis as the basic
   column indices of the solved model ([basic]). The engine knows no
   names: a caller that re-solves a related model (the cut loop of
   Multicast-LB, which only adds rows, or another platform's or epoch's
   basis that Formulations carries in its own typed form) maps the basis
   onto the new model's column indices itself and says which rows the
   basis's own model did not have ([start]). [Basis.warm] picks and
   factorizes the basis in one elimination: the new rows' slacks first,
   then the start's columns that still find a pivot on the shared rows,
   then the slacks of the rows left over. The solve then runs dual
   simplex (if the basis prices dual feasible — the common case when
   rows were added to a previously solved model) or primal phase 2 (if
   it is primal feasible). Any trouble on the warm path — singular
   factorization, neither feasible, stall, numerical drift — falls back
   to a cold solve inside this module, so warm starts can change
   performance but never verdicts: only [Optimal] ever escapes the warm
   path. Models with artificial columns (Ge/Eq rows) skip the warm path
   entirely, so every row has a slack. *)

type start = { basic : int array; is_new_row : int -> bool }

type status = Optimal of Lp_model.solution * int array | Infeasible | Unbounded | Stalled

let epsilon = 1e-9
let max_iterations = 200_000
let stall_window = 512

(* Anti-cycling controller: Dantzig pricing until the objective stalls
   for [stall_window] consecutive pivots, then Bland's rule for the
   remainder of the phase. The latch is one-way: releasing it on progress
   would void Bland's termination guarantee — a cycle that alternates tiny
   non-zero progress with degenerate stretches would re-arm Dantzig
   forever. *)
module Anti_cycle = struct
  type t = { mutable stall : int; mutable bland : bool; mutable last_obj : float }

  let create obj = { stall = 0; bland = false; last_obj = obj }
  let bland t = t.bland

  let observe t obj =
    if abs_float (obj -. t.last_obj) < epsilon then begin
      t.stall <- t.stall + 1;
      if t.stall > stall_window then t.bland <- true
    end
    else begin
      t.stall <- 0;
      t.last_obj <- obj
    end
end

(* Residual tolerance on B x_B = b before forcing an early
   refactorization; an order looser than the feasibility tolerances so
   a refactor fires well before verdicts could be affected. *)
let residual_tol = 1e-7

(* Feasibility slop accepted when classifying a warm basis. Looser than
   [epsilon]: a basis ported across models is useful even when it prices
   a few ulps on the wrong side. *)
let warm_tol = 1e-7

exception Numerical

type std = {
  m : int;
  ncols : int;
  nv : int; (* structural variable count *)
  art_start : int;
  cols : (int array * float array) array;
  b : float array;
  cost : float array; (* internal minimization costs over all columns *)
  sign : float; (* -1 when maximizing: external obj = sign * internal *)
  slack_of_row : int array; (* slack/surplus column of each row *)
  init_basic : int array; (* cold-start basis: slack or artificial per row *)
}

let of_model model =
  let maximize, obj = Lp_model.objective model in
  let rows = Lp_model.rows model in
  let nv = Lp_model.n_vars model in
  let norm =
    Array.map
      (fun (expr, cmp, rhs) ->
        if rhs < 0.0 then
          let expr = List.map (fun (c, v) -> (-.c, v)) expr in
          let cmp = match cmp with Lp_model.Le -> Lp_model.Ge | Ge -> Le | Eq -> Eq in
          (expr, cmp, -.rhs)
        else (expr, cmp, rhs))
      rows
  in
  let m = Array.length norm in
  let n_slack = ref 0 and n_art = ref 0 in
  Array.iter
    (fun (_, cmp, _) ->
      match cmp with
      | Lp_model.Le -> incr n_slack
      | Ge ->
        incr n_slack;
        incr n_art
      | Eq -> incr n_art)
    norm;
  let art_start = nv + !n_slack in
  let ncols = art_start + !n_art in
  (* Structural columns, transposed from the row-major model. Duplicate
     (row, var) entries are kept as-is: every consumer adds them up. *)
  let acc = Array.make ncols [] in
  Array.iteri
    (fun i (expr, _, _) -> List.iter (fun (c, v) -> acc.(v) <- (i, c) :: acc.(v)) expr)
    norm;
  let b = Array.make m 0.0 in
  let slack_of_row = Array.make m (-1) in
  let init_basic = Array.make m (-1) in
  let slack = ref nv and art = ref art_start in
  Array.iteri
    (fun i (_, cmp, rhs) ->
      b.(i) <- rhs;
      match cmp with
      | Lp_model.Le ->
        acc.(!slack) <- [ (i, 1.0) ];
        slack_of_row.(i) <- !slack;
        init_basic.(i) <- !slack;
        incr slack
      | Ge ->
        acc.(!slack) <- [ (i, -1.0) ];
        slack_of_row.(i) <- !slack;
        incr slack;
        acc.(!art) <- [ (i, 1.0) ];
        init_basic.(i) <- !art;
        incr art
      | Eq ->
        acc.(!art) <- [ (i, 1.0) ];
        init_basic.(i) <- !art;
        incr art)
    norm;
  let cols =
    Array.map
      (fun entries ->
        let entries = List.rev entries in
        let n = List.length entries in
        let rows_a = Array.make n 0 and vals = Array.make n 0.0 in
        List.iteri
          (fun k (r, c) ->
            rows_a.(k) <- r;
            vals.(k) <- c)
          entries;
        (rows_a, vals))
      acc
  in
  let sign = if maximize then -1.0 else 1.0 in
  let cost = Array.make ncols 0.0 in
  List.iter (fun (c, v) -> cost.(v) <- cost.(v) +. (sign *. c)) obj;
  {
    m;
    ncols;
    nv;
    art_start;
    cols;
    b;
    cost;
    sign;
    slack_of_row;
    init_basic;
  }

type form = std

(* What [of_model] makes of "maximize [objective] subject to A x <= rhs,
   x >= 0" with every rhs >= 0, for a caller that holds A by columns
   already: column j < nv is [cols.(j)], then the slack of row i is
   column nv + i. *)
let le_form ~objective ~cols ~rhs =
  let nv = Array.length cols and m = Array.length rhs in
  let ncols = nv + m in
  let sign = -1.0 in
  let cost = Array.make ncols 0.0 in
  List.iter (fun (c, v) -> cost.(v) <- cost.(v) +. (sign *. c)) objective;
  let slacks = Array.init m (fun i -> nv + i) in
  {
    m;
    ncols;
    nv;
    art_start = ncols;
    cols = Array.init ncols (fun j -> if j < nv then cols.(j) else ([| j - nv |], [| 1.0 |]));
    b = rhs;
    cost;
    sign;
    slack_of_row = slacks;
    init_basic = slacks;
  }

let dims std = (std.nv, std.m)

(* The program a form holds, as a model: row i is its structural entries,
   with the comparison its slack column names (+1 slack Le, -1 surplus
   Ge, none Eq) and rhs b.(i); the objective is the costs with the sign
   flip undone. *)
let to_model std =
  let m = Lp_model.create () in
  for _ = 1 to std.nv do
    ignore (Lp_model.add_var m)
  done;
  let exprs = Array.make std.m [] in
  for j = std.nv - 1 downto 0 do
    let rows, vals = std.cols.(j) in
    Array.iteri (fun k i -> exprs.(i) <- (vals.(k), j) :: exprs.(i)) rows
  done;
  Array.iteri
    (fun i expr ->
      let cmp =
        match std.slack_of_row.(i) with
        | -1 -> Lp_model.Eq
        | s -> if (snd std.cols.(s)).(0) > 0.0 then Lp_model.Le else Lp_model.Ge
      in
      Lp_model.add_constraint m expr cmp std.b.(i))
    exprs;
  Lp_model.set_objective m ~maximize:(std.sign < 0.0)
    (List.filter_map
       (fun j -> if std.cost.(j) = 0.0 then None else Some (std.sign *. std.cost.(j), j))
       (List.init std.nv Fun.id));
  m

(* The work of one solve, added to Lp_counters once at its end so the
   hot path touches no shared counter. *)
type tally = { mutable pivots : int; mutable ftrans : int; mutable btrans : int }

let ftran tally bs v =
  tally.ftrans <- tally.ftrans + 1;
  Basis.ftran bs v

let btran tally bs v =
  tally.btrans <- tally.btrans + 1;
  Basis.btran bs v

let dot (rows, vals) y =
  let s = ref 0.0 in
  for k = 0 to Array.length rows - 1 do
    s := !s +. (Array.unsafe_get vals k *. Array.unsafe_get y (Array.unsafe_get rows k))
  done;
  !s

(* B^-1 a_j, with a_j scattered into [buf]: an all-zero m-vector that
   is all-zero again on return. *)
let ftran_col tally std bs buf j =
  let rows, vals = std.cols.(j) in
  for k = 0 to Array.length rows - 1 do
    buf.(rows.(k)) <- buf.(rows.(k)) +. vals.(k)
  done;
  let w = ftran tally bs buf in
  for k = 0 to Array.length rows - 1 do
    buf.(rows.(k)) <- 0.0
  done;
  w

(* The stability check on x = B^-1 b: when the relative residual of the
   eta-file solve exceeds [residual_tol], refactorize early and re-solve;
   if a fresh factorization still cannot reproduce b, the basis is
   numerically hopeless and the caller falls back. *)
let checked_xb tally std bs x =
  if Basis.residual bs ~b:std.b ~x <= residual_tol then x
  else begin
    (match Basis.refactor bs with Ok () -> () | Error _ -> raise Numerical);
    let x = ftran tally bs std.b in
    if Basis.residual bs ~b:std.b ~x > residual_tol then raise Numerical;
    x
  end

let compute_xb tally std bs = checked_xb tally std bs (ftran tally bs std.b)

(* x_B after a pivot, from x_B before it: the newest eta applied in
   place, the same bits as [compute_xb] unless the pivot refactorized. *)
let advance_xb tally std bs x =
  if Basis.advance bs x then checked_xb tally std bs x else compute_xb tally std bs

type phase_result = P_optimal | P_unbounded | P_stalled

(* One primal phase over cost vector [cost], entering restricted to
   [allow], from [x_b], the current basis's x_B (consumed). Pricing
   follows the Anti_cycle controller (Dantzig until the objective
   stalls, then a one-way Bland latch); the ratio test evicts
   artificials basic at zero eagerly. Returns the verdict, the final x_B
   and the y of the last pricing, which on [P_optimal] is the final
   basis's B^-T c_B. *)
let primal std bs is_basic cost ~allow ~x_b ~max_iter tally =
  let m = std.m in
  let header = Basis.header bs in
  let cb = Array.make m 0.0 and buf = Array.make m 0.0 in
  for i = 0 to m - 1 do
    cb.(i) <- cost.(header.(i))
  done;
  let x_b = ref x_b and last_y = ref [||] in
  let objective () =
    let s = ref 0.0 in
    for i = 0 to m - 1 do
      s := !s +. (cb.(i) *. !x_b.(i))
    done;
    !s
  in
  let ac = Anti_cycle.create (objective ()) in
  let iter = ref 0 in
  let result = ref None in
  while !result = None do
    if !iter >= max_iter then result := Some P_stalled
    else begin
      let y = btran tally bs cb in
      last_y := y;
      let q =
        if Anti_cycle.bland ac then begin
          let rec go j =
            if j >= std.ncols then None
            else if
              (not is_basic.(j)) && allow j && cost.(j) -. dot std.cols.(j) y < -.epsilon
            then Some j
            else go (j + 1)
          in
          go 0
        end
        else begin
          let best = ref (-1) and best_v = ref (-.epsilon) in
          for j = 0 to std.ncols - 1 do
            if (not is_basic.(j)) && allow j then begin
              let d = cost.(j) -. dot std.cols.(j) y in
              if d < !best_v then begin
                best_v := d;
                best := j
              end
            end
          done;
          if !best < 0 then None else Some !best
        end
      in
      match q with
      | None -> result := Some P_optimal
      | Some q ->
        let w = ftran_col tally std bs buf q in
        let r = ref (-1) in
        (* Artificials basic at zero are evicted eagerly: when a
           structural column enters and touches such a row at all (either
           sign), pivot there first. The pivot is degenerate, and it keeps
           the artificial from ever rising above zero, which would
           silently violate its equality row. *)
        if q < std.art_start then begin
          let i = ref 0 in
          while !r < 0 && !i < m do
            if
              header.(!i) >= std.art_start
              && abs_float !x_b.(!i) <= epsilon
              && abs_float w.(!i) > epsilon
            then r := !i;
            incr i
          done
        end;
        if !r < 0 then begin
          let best_ratio = ref infinity in
          for i = 0 to m - 1 do
            if w.(i) > epsilon then begin
              let ratio = !x_b.(i) /. w.(i) in
              let ratio = if ratio < 0.0 then 0.0 else ratio in
              let better =
                if ratio < !best_ratio -. epsilon then true
                else if ratio > !best_ratio +. epsilon then false
                else begin
                  let cur = !r in
                  if cur < 0 then true
                  else begin
                    let i_art = header.(i) >= std.art_start in
                    let cur_art = header.(cur) >= std.art_start in
                    if i_art <> cur_art then i_art else header.(i) < header.(cur)
                  end
                end
              in
              if better then begin
                r := i;
                best_ratio := ratio
              end
            end
          done
        end;
        if !r < 0 then result := Some P_unbounded
        else begin
          let leave = header.(!r) in
          (match Basis.update bs ~row:!r ~col:q ~w with
          | Ok () -> ()
          | Error _ -> raise Numerical);
          is_basic.(leave) <- false;
          is_basic.(q) <- true;
          cb.(!r) <- cost.(q);
          x_b := advance_xb tally std bs !x_b;
          incr iter;
          tally.pivots <- tally.pivots + 1;
          Anti_cycle.observe ac (objective ())
        end
    end
  done;
  (Option.get !result, !x_b, !last_y)

(* Dual simplex: drive a dual-feasible basis to primal feasibility.
   Leaving row = most negative basic value; entering = dual ratio test
   over the leaving row's BTRAN, breaking near-ties towards the largest
   |alpha| for stability. Warm restarts of the cut LPs are heavily
   degenerate (many zero reduced costs), so after [m] iterations without
   converging we assume the loop is cycling on zero-length dual steps and
   switch both rules to Bland's lowest-index choice, which cannot cycle.

   [x_b] and [d] are the starting basis's x_B and reduced costs (d_j for
   each nonbasic j), both consumed. Each pivot advances x_B through its
   eta and moves the reduced costs by the ratio step: the duals move by
   theta = d_q / alpha_q along the leaving row, so d_j -= theta alpha_j,
   the entering column prices to zero and the leaving one (alpha 1) to
   -theta. The carried d can drift from a fresh pricing by rounding,
   which can cost a pivot but not a verdict: [finish] prices from a
   fresh y. Returns the verdict and the final x_B. Used on the warm path
   only, so every non-Optimal outcome just surrenders to a cold solve. *)
let dual std bs is_basic ~x_b ~d ~max_iter tally =
  let m = std.m in
  let header = Basis.header bs in
  let buf = Array.make m 0.0 and alpha = Array.make std.ncols 0.0 in
  let x_b = ref x_b in
  let iter = ref 0 in
  let result = ref None in
  while !result = None do
    if !iter >= max_iter then result := Some `Stalled
    else begin
      let bland = !iter >= m in
      (* The previous iteration's pivot, advanced only once the budget
         allows another iteration: a refactorization the residual check
         forces then happens exactly where a fresh x_B would force it. *)
      if !iter > 0 then x_b := advance_xb tally std bs !x_b;
      let x_b = !x_b in
      let r = ref (-1) and rv = ref (-.epsilon) in
      for i = 0 to m - 1 do
        if x_b.(i) < -.epsilon then
          if bland then begin
            if !r < 0 || header.(i) < header.(!r) then r := i
          end
          else if x_b.(i) < !rv then begin
            rv := x_b.(i);
            r := i
          end
      done;
      if !r < 0 then result := Some `Optimal
      else begin
        buf.(!r) <- 1.0;
        let rho = btran tally bs buf in
        buf.(!r) <- 0.0;
        let q = ref (-1) and best = ref infinity and best_a = ref 0.0 in
        for j = 0 to std.ncols - 1 do
          if not is_basic.(j) then begin
            let a = dot std.cols.(j) rho in
            alpha.(j) <- a;
            if a < -.epsilon then begin
              let dj = if d.(j) < 0.0 then 0.0 else d.(j) in
              let ratio = dj /. -.a in
              if ratio < !best -. 1e-9 then begin
                best := ratio;
                q := j;
                best_a := -.a
              end
              else if (not bland) && ratio < !best +. 1e-9 && -.a > !best_a then begin
                (* near-tie: prefer the larger pivot magnitude *)
                q := j;
                best_a := -.a
              end
            end
          end
        done;
        if !q < 0 then result := Some `Primal_infeasible
        else begin
          let q = !q in
          let w = ftran_col tally std bs buf q in
          let leave = header.(!r) in
          match Basis.update bs ~row:!r ~col:q ~w with
          | Error _ -> raise Numerical
          | Ok () ->
            let theta = d.(q) /. alpha.(q) in
            for j = 0 to std.ncols - 1 do
              if not is_basic.(j) then d.(j) <- d.(j) -. (theta *. alpha.(j))
            done;
            d.(q) <- 0.0;
            d.(leave) <- -.theta;
            is_basic.(leave) <- false;
            is_basic.(q) <- true;
            incr iter;
            tally.pivots <- tally.pivots + 1
        end
      end
    end
  done;
  (Option.get !result, !x_b)

(* [x_b] and [y] are the final basis's x_B and B^-T c_B. *)
let extract std bs ~x_b ~y ~pivots =
  let m = std.m in
  let header = Basis.header bs in
  let values = Array.make std.nv 0.0 in
  for i = 0 to m - 1 do
    if header.(i) < std.nv then values.(header.(i)) <- x_b.(i)
  done;
  let cb = Array.init m (fun i -> std.cost.(header.(i))) in
  let internal = ref 0.0 in
  for i = 0 to m - 1 do
    internal := !internal +. (cb.(i) *. x_b.(i))
  done;
  (* Duals for the NORMALIZED rows (rhs >= 0), as Lp_model.solution
     documents them: for a minimization y itself, sign-flipped when the
     objective was negated for maximization. *)
  let row_duals = Array.map (fun yi -> std.sign *. yi) y in
  Optimal
    ({ Lp_model.values; objective = std.sign *. !internal; row_duals; pivots }, Array.copy header)

(* Phase 2 from a primal-feasible basis, then extraction. [`Fallback]
   means a warm caller must fall back (stall / numerical trouble);
   Unbounded is only trusted from a cold start. *)
let finish std bs is_basic ~x_b ~max_iter tally ~warm =
  let allow j = j < std.art_start in
  match primal std bs is_basic std.cost ~allow ~x_b ~max_iter tally with
  | P_optimal, x_b, y -> `Done (extract std bs ~x_b ~y ~pivots:tally.pivots)
  | P_unbounded, _, _ -> if warm then `Fallback else `Done Unbounded
  | P_stalled, _, _ -> if warm then `Fallback else `Done Stalled

let cold std ~max_iter tally =
  let header = Array.copy std.init_basic in
  match Basis.create ~cols:std.cols ~header with
  | Error _ -> Stalled
  | Ok bs ->
    let is_basic = Array.make std.ncols false in
    Array.iter (fun j -> is_basic.(j) <- true) header;
    let x_b = compute_xb tally std bs in
    let n_art = std.ncols - std.art_start in
    let phase1, x_b =
      if n_art = 0 then (P_optimal, x_b)
      else begin
        (* Initial artificial values are the rhs of their rows; if they
           all start at zero, phase 1 is already optimal. *)
        let infeas = ref 0.0 in
        Array.iteri
          (fun i j -> if j >= std.art_start then infeas := !infeas +. std.b.(i))
          header;
        if !infeas <= epsilon then (P_optimal, x_b)
        else begin
          let cost1 = Array.make std.ncols 0.0 in
          for j = std.art_start to std.ncols - 1 do
            cost1.(j) <- 1.0
          done;
          let verdict, x_b, _ =
            primal std bs is_basic cost1 ~allow:(fun _ -> true) ~x_b ~max_iter tally
          in
          let verdict =
            match verdict with
            | P_optimal ->
              let obj1 = ref 0.0 in
              Array.iteri
                (fun i j -> if j >= std.art_start then obj1 := !obj1 +. (cost1.(j) *. x_b.(i)))
                header;
              if !obj1 > 1e-6 then P_unbounded (* reuse as "infeasible" signal *)
              else P_optimal
            | v -> v
          in
          (verdict, x_b)
        end
      end
    in
    (match phase1 with
    | P_stalled -> Stalled
    | P_unbounded -> Infeasible (* phase-1 objective is bounded below by 0 *)
    | P_optimal -> (
      match finish std bs is_basic ~x_b ~max_iter tally ~warm:false with
      | `Done st -> st
      | `Fallback -> Stalled (* unreachable: cold finish never asks to fall back *)))

(* The columns of a start that exist in this model, in header order,
   without duplicates and at most m of them. *)
let resolve_indices std basic =
  let seen = Array.make std.ncols false in
  let resolved = ref [] and count = ref 0 in
  Array.iter
    (fun j ->
      if j >= 0 && j < std.ncols && (not seen.(j)) && !count < std.m then begin
        seen.(j) <- true;
        resolved := j :: !resolved;
        incr count
      end)
    basic;
  List.rev !resolved

(* Dual-simplex pivot budget for a warm attempt: re-solves from a good
   basis take a few dozen pivots even at bench scale, so anything that
   drags past a couple of sweeps over the rows is cheaper to restart
   cold than to keep grinding (the budget is pure waste when the attempt
   ultimately fails). The dual loop's own Bland latch kicks in at [m]
   iterations, so the budget leaves it room to untangle a short cycle
   but not to wander. *)
let dual_budget std = 32 + std.m

let try_warm std { basic; is_new_row } ~max_iter tally =
  let forced =
    List.filter_map
      (fun i -> if is_new_row i then Some std.slack_of_row.(i) else None)
      (List.init std.m Fun.id)
  in
  match
    Basis.warm ~cols:std.cols ~forced ~candidates:(resolve_indices std basic)
      ~slack_of_row:std.slack_of_row
  with
  | Error _ -> None
  | Ok bs -> (
    let header = Basis.header bs in
    try
      let is_basic = Array.make std.ncols false in
      Array.iter (fun j -> is_basic.(j) <- true) header;
      let x_b = compute_xb tally std bs in
      let cb = Array.init std.m (fun i -> std.cost.(header.(i))) in
      let y = btran tally bs cb in
      let d = Array.make std.ncols 0.0 in
      let dual_ok = ref true in
      for j = 0 to std.ncols - 1 do
        if not is_basic.(j) then begin
          d.(j) <- std.cost.(j) -. dot std.cols.(j) y;
          if d.(j) < -.warm_tol then dual_ok := false
        end
      done;
      let primal_ok = Array.for_all (fun v -> v >= -.warm_tol) x_b in
      let finish_warm x_b =
        match finish std bs is_basic ~x_b ~max_iter tally ~warm:true with
        | `Done (Optimal _ as optimal) -> Some optimal
        | `Done _ | `Fallback -> None
      in
      if !dual_ok then begin
        match
          dual std bs is_basic ~x_b ~d ~max_iter:(min max_iter (dual_budget std)) tally
        with
        (* The primal clean-up pass absorbs any residual dual
           infeasibility the tolerance let through; from a truly
           optimal basis it prices out in zero pivots. *)
        | `Optimal, x_b -> finish_warm x_b
        | (`Primal_infeasible | `Stalled), _ -> None
      end
      else if primal_ok then finish_warm x_b
      else None
    with Numerical -> None)

let solve ?(max_iter = max_iterations) ?start std =
  Lp_counters.record_float_solve ();
  let tally = { pivots = 0; ftrans = 0; btrans = 0 } in
  let warm =
    match start with
    | Some start when std.ncols = std.art_start && std.m > 0 ->
      try_warm std start ~max_iter tally
    | _ -> None
  in
  let result =
    match warm with
    | Some optimal ->
      Lp_counters.record_warm_hit ();
      optimal
    | None -> ( try cold std ~max_iter tally with Numerical -> Stalled)
  in
  Lp_counters.record_pivots tally.pivots;
  Lp_counters.record_ftrans tally.ftrans;
  Lp_counters.record_btrans tally.btrans;
  result
