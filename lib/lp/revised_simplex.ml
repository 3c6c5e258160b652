(* Revised primal/dual simplex over a sparse column-major model.

   Standard form: rows normalized to rhs >= 0, one slack/surplus column
   per inequality, one artificial per Ge/Eq row, internal minimization
   with maximization handled by a sign flip. Instead of a dense tableau
   we keep only the basis header plus an LU factorization with eta
   updates (Basis); each iteration recomputes y = B^-T c_B, prices
   reduced costs against the sparse columns, and FTRANs the entering
   column. The factors and etas are stored sparsely, so a solve costs
   O(m + nnz(L + U) + nnz(etas)) and a pivot O(m + nnz(A) + those
   nonzeros) instead of the O(m * n) of a dense tableau — and, the point
   of the exercise, the basis is a first-class value that can seed a
   re-solve of a related model.

   Warm starts: an optimal solution exports its basis as the basic
   column indices of the solved model ([basic]). The engine knows no
   names: a caller that re-solves a related model (the cut loop of
   Multicast-LB, which only adds rows, or another platform's or epoch's
   basis that Formulations carries in its own typed form) maps the basis
   onto the new model's column indices itself and says which rows the
   basis's own model did not have ([start]). A repair completes the set
   with slacks of uncovered rows; the solve then factorizes and runs
   dual simplex (if the basis prices dual feasible — the common case
   when rows were added to a previously solved model) or primal phase 2
   (if it is primal feasible). Any trouble on the warm path —
   unresolvable basis, singular factorization, neither feasible, stall,
   numerical drift — falls back to a cold solve inside this module, so
   warm starts can change performance but never verdicts: only
   [Optimal] ever escapes the warm path. Models with artificial columns
   (Ge/Eq rows) skip the warm path entirely. *)

type solution = {
  values : float array;
  objective : float;
  row_duals : float array;
  pivots : int;
  basic : int array;
  warm_used : bool;
}

type start = { basic : int array; is_new_row : int -> bool }

type status = Optimal of solution | Infeasible | Unbounded | Stalled

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

let build model =
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

(* What [build] makes of "maximize [objective] subject to A x <= rhs,
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

let dot (rows, vals) y =
  let s = ref 0.0 in
  for k = 0 to Array.length rows - 1 do
    s := !s +. (Array.unsafe_get vals k *. Array.unsafe_get y (Array.unsafe_get rows k))
  done;
  !s

let dense_col std j =
  let v = Array.make std.m 0.0 in
  let rows, vals = std.cols.(j) in
  for k = 0 to Array.length rows - 1 do
    v.(rows.(k)) <- v.(rows.(k)) +. vals.(k)
  done;
  v

(* x_B = B^-1 b, with the stability check: when the relative residual of
   the eta-file solve exceeds [residual_tol], refactorize early and
   re-solve; if a fresh factorization still cannot reproduce b, the
   basis is numerically hopeless and the caller falls back. *)
let compute_xb std bs =
  let x = Basis.ftran bs std.b in
  if Basis.residual bs ~b:std.b ~x <= residual_tol then x
  else begin
    (match Basis.refactor bs with Ok () -> () | Error _ -> raise Numerical);
    let x = Basis.ftran bs std.b in
    if Basis.residual bs ~b:std.b ~x > residual_tol then raise Numerical;
    x
  end

type phase_result = P_optimal | P_unbounded | P_stalled

(* One primal phase over cost vector [cost], entering restricted to
   [allow]. Pricing follows the Anti_cycle controller (Dantzig until
   the objective stalls, then a one-way Bland latch); the ratio test
   evicts artificials basic at zero eagerly. Returns the verdict and the
   final x_B. *)
let primal std bs is_basic cost ~allow ~max_iter pivots =
  let m = std.m in
  let header = Basis.header bs in
  let cb = Array.make m 0.0 in
  for i = 0 to m - 1 do
    cb.(i) <- cost.(header.(i))
  done;
  let x_b = ref (compute_xb std bs) in
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
      let y = Basis.btran bs cb in
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
        let w = Basis.ftran bs (dense_col std q) in
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
          x_b := compute_xb std bs;
          incr iter;
          incr pivots;
          Anti_cycle.observe ac (objective ())
        end
    end
  done;
  (Option.get !result, !x_b)

(* Dual simplex: drive a dual-feasible basis to primal feasibility.
   Leaving row = most negative basic value; entering = dual ratio test
   over the leaving row's BTRAN, breaking near-ties towards the largest
   |alpha| for stability. Warm restarts of the cut LPs are heavily
   degenerate (many zero reduced costs), so after [m] iterations without
   converging we assume the loop is cycling on zero-length dual steps and
   switch both rules to Bland's lowest-index choice, which cannot cycle.
   Used on the warm path only, so every non-Optimal outcome just
   surrenders to a cold solve. *)
let dual std bs is_basic ~max_iter pivots =
  let m = std.m in
  let header = Basis.header bs in
  let cb = Array.make m 0.0 in
  let iter = ref 0 in
  let result = ref None in
  while !result = None do
    if !iter >= max_iter then result := Some `Stalled
    else begin
      let bland = !iter >= m in
      let x_b = compute_xb std bs in
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
        for i = 0 to m - 1 do
          cb.(i) <- std.cost.(header.(i))
        done;
        let y = Basis.btran bs cb in
        let er = Array.make m 0.0 in
        er.(!r) <- 1.0;
        let rho = Basis.btran bs er in
        let q = ref (-1) and best = ref infinity and best_a = ref 0.0 in
        for j = 0 to std.ncols - 1 do
          if not is_basic.(j) then begin
            let alpha = dot std.cols.(j) rho in
            if alpha < -.epsilon then begin
              let d = std.cost.(j) -. dot std.cols.(j) y in
              let d = if d < 0.0 then 0.0 else d in
              let ratio = d /. -.alpha in
              if ratio < !best -. 1e-9 then begin
                best := ratio;
                q := j;
                best_a := -.alpha
              end
              else if (not bland) && ratio < !best +. 1e-9 && -.alpha > !best_a
              then begin
                (* near-tie: prefer the larger pivot magnitude *)
                q := j;
                best_a := -.alpha
              end
            end
          end
        done;
        if !q < 0 then result := Some `Primal_infeasible
        else begin
          let w = Basis.ftran bs (dense_col std !q) in
          let leave = header.(!r) in
          match Basis.update bs ~row:!r ~col:!q ~w with
          | Error _ -> raise Numerical
          | Ok () ->
            is_basic.(leave) <- false;
            is_basic.(!q) <- true;
            incr iter;
            incr pivots
        end
      end
    end
  done;
  Option.get !result

let extract std bs x_b ~pivots ~warm_used =
  let m = std.m in
  let header = Basis.header bs in
  let values = Array.make std.nv 0.0 in
  for i = 0 to m - 1 do
    if header.(i) < std.nv then values.(header.(i)) <- x_b.(i)
  done;
  let cb = Array.init m (fun i -> std.cost.(header.(i))) in
  let y = Basis.btran bs cb in
  let internal = ref 0.0 in
  for i = 0 to m - 1 do
    internal := !internal +. (cb.(i) *. x_b.(i))
  done;
  (* Duals for the NORMALIZED rows (rhs >= 0), as Lp_model.solution
     documents them: for a minimization y itself, sign-flipped when the
     objective was negated for maximization. *)
  let row_duals = Array.map (fun yi -> std.sign *. yi) y in
  {
    values;
    objective = std.sign *. !internal;
    row_duals;
    pivots;
    basic = Array.copy header;
    warm_used;
  }

(* Phase 2 from a primal-feasible basis, then extraction. [None] means
   the caller must fall back (stall / numerical trouble); Unbounded is
   only trusted from a cold start. *)
let finish std bs is_basic ~max_iter pivots ~warm_used =
  let allow j = j < std.art_start in
  match primal std bs is_basic std.cost ~allow ~max_iter pivots with
  | P_optimal, x_b -> `Done (Optimal (extract std bs x_b ~pivots:!pivots ~warm_used))
  | P_unbounded, _ -> if warm_used then `Fallback else `Done Unbounded
  | P_stalled, _ -> if warm_used then `Fallback else `Done Stalled

let cold std ~max_iter pivots =
  let header = Array.copy std.init_basic in
  match Basis.create ~cols:std.cols ~header with
  | Error _ -> Stalled
  | Ok bs ->
    let is_basic = Array.make std.ncols false in
    Array.iter (fun j -> is_basic.(j) <- true) header;
    let n_art = std.ncols - std.art_start in
    let phase1 =
      if n_art = 0 then P_optimal
      else begin
        (* Initial artificial values are the rhs of their rows; if they
           all start at zero, phase 1 is already optimal. *)
        let infeas = ref 0.0 in
        Array.iteri
          (fun i j -> if j >= std.art_start then infeas := !infeas +. std.b.(i))
          header;
        if !infeas <= epsilon then P_optimal
        else begin
          let cost1 = Array.make std.ncols 0.0 in
          for j = std.art_start to std.ncols - 1 do
            cost1.(j) <- 1.0
          done;
          let verdict, x_b =
            primal std bs is_basic cost1 ~allow:(fun _ -> true) ~max_iter pivots
          in
          (match verdict with
          | P_optimal ->
            let obj1 = ref 0.0 in
            Array.iteri
              (fun i j -> if j >= std.art_start then obj1 := !obj1 +. (cost1.(j) *. x_b.(i)))
              header;
            if !obj1 > 1e-6 then P_unbounded (* reuse as "infeasible" signal *)
            else P_optimal
          | v -> v)
        end
      end
    in
    (match phase1 with
    | P_stalled -> Stalled
    | P_unbounded -> Infeasible (* phase-1 objective is bounded below by 0 *)
    | P_optimal -> (
      match finish std bs is_basic ~max_iter pivots ~warm_used:false with
      | `Done st -> st
      | `Fallback -> Stalled (* unreachable: cold finish never asks to fall back *)))

module Int_set = Set.Make (Int)

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

(* Repair a resolved basis into a nonsingular basis of this model:

   - rows the source model never had ([is_new_row]) are genuinely new —
     their slacks go basic up front;
   - Gaussian-eliminate the [resolved] columns with pivot rows restricted
     to the {e shared} rows, keeping a maximal independent subset;
   - complete with the slacks of whatever shared rows end unpivoted.

   The row restriction is the load-bearing part. When the new
   model only added rows (the cut-generation loop, nominal-to-survivor
   re-solves), the old basis is nonsingular on the shared rows, so
   every resolved column pivots there and the result is exactly the
   block-triangular [B 0; C I]: nonsingular, and priced identically to
   the old optimum (dual feasible), leaving the dual simplex a short
   re-solve. Unrestricted magnitude pivoting instead happily pivots an
   old column on a new cut row (their ±1 entries dominate the
   cost-sized port entries), silently swapping a different slack into
   the basis and destroying dual feasibility. Only all-Le models are
   offered the warm path, so every row has a slack and completion
   always reaches m columns. *)
let repair std resolved ~is_new_row =
  let header = Array.make std.m (-1) in
  let pos = ref 0 in
  let row_used = Array.make std.m false in
  (* New rows first: slack basic, row off-limits to the elimination. A
     resolved column that happens to be such a slack (a caller mapping
     that collides across models) loses its slot to the forced assignment. *)
  let forced = Hashtbl.create 16 in
  for i = 0 to std.m - 1 do
    if is_new_row i then begin
      row_used.(i) <- true;
      let s = std.slack_of_row.(i) in
      if (not (Hashtbl.mem forced s)) && !pos < std.m then begin
        Hashtbl.replace forced s ();
        header.(!pos) <- s;
        incr pos
      end
    end
  done;
  let resolved = List.filter (fun j -> not (Hashtbl.mem forced j)) resolved in
  (* Left-looking sparse elimination, term for term the right-looking
     dense one: column c receives the updates of the earlier pivots in
     pivot order (a set of pending pivots, added when their row
     enters c's pattern), then picks its pivot — the first row of
     largest magnitude above 1e-9 — among the shared rows still unused.
     A pivot keeps its column's entries on the rows still unused, the
     only ones later columns read. *)
  let m = std.m in
  let work = Array.make m 0.0 in
  let pattern = Array.make m 0 and in_pattern = Array.make m false and np = ref 0 in
  let pivot_of_row = Array.make m (-1) in
  (* pivot p: its row, its value, and its column's entries *)
  let piv_row = Array.make m 0 and piv_val = Array.make m 0.0 and n_piv = ref 0 in
  let col_rows = Array.make m [||] and col_vals = Array.make m [||] in
  let pending = ref Int_set.empty in
  let touch i =
    if not in_pattern.(i) then begin
      in_pattern.(i) <- true;
      pattern.(!np) <- i;
      incr np;
      let p = pivot_of_row.(i) in
      if p >= 0 then pending := Int_set.add p !pending
    end
  in
  List.iter
    (fun j ->
      let rows, vs = std.cols.(j) in
      for e = 0 to Array.length rows - 1 do
        let i = rows.(e) in
        touch i;
        work.(i) <- work.(i) +. vs.(e)
      done;
      while not (Int_set.is_empty !pending) do
        let p = Int_set.min_elt !pending in
        pending := Int_set.remove p !pending;
        let f = work.(piv_row.(p)) /. piv_val.(p) in
        if f <> 0.0 then
          Array.iteri
            (fun k i ->
              touch i;
              work.(i) <- work.(i) -. (f *. col_vals.(p).(k)))
            col_rows.(p)
      done;
      let best = ref (-1) and best_v = ref 1e-9 in
      for q = 0 to !np - 1 do
        let i = pattern.(q) in
        if not row_used.(i) then begin
          let v = abs_float work.(i) in
          if v > !best_v || (v = !best_v && !best >= 0 && i < !best) then begin
            best_v := v;
            best := i
          end
        end
      done;
      (match !best with
      | -1 -> () (* dependent on the columns kept so far: drop *)
      | r ->
        row_used.(r) <- true;
        if !pos < m then begin
          header.(!pos) <- j;
          incr pos
        end;
        let p = !n_piv in
        piv_row.(p) <- r;
        piv_val.(p) <- work.(r);
        pivot_of_row.(r) <- p;
        let rows =
          Array.of_list
            (List.filter
               (fun i -> (not row_used.(i)) && work.(i) <> 0.0)
               (List.init !np (Array.get pattern)))
        in
        col_rows.(p) <- rows;
        col_vals.(p) <- Array.map (Array.get work) rows;
        n_piv := p + 1);
      for q = 0 to !np - 1 do
        let i = pattern.(q) in
        work.(i) <- 0.0;
        in_pattern.(i) <- false
      done;
      np := 0)
    resolved;
  for i = 0 to std.m - 1 do
    if (not row_used.(i)) && !pos < std.m then begin
      header.(!pos) <- std.slack_of_row.(i);
      incr pos
    end
  done;
  if !pos < std.m then None else Some header

(* Dual-simplex pivot budget for a warm attempt: re-solves from a good
   basis take a few dozen pivots even at bench scale, so anything that
   drags past a couple of sweeps over the rows is cheaper to restart
   cold than to keep grinding (the budget is pure waste when the attempt
   ultimately fails). The dual loop's own Bland latch kicks in at [m]
   iterations, so the budget leaves it room to untangle a short cycle
   but not to wander. *)
let dual_budget std = 32 + std.m

let try_warm std { basic; is_new_row } ~max_iter pivots =
  match repair std (resolve_indices std basic) ~is_new_row with
  | None -> None
  | Some header -> (
    match Basis.create ~cols:std.cols ~header with
    | Error _ -> None
    | Ok bs -> (
      try
        let is_basic = Array.make std.ncols false in
        Array.iter (fun j -> is_basic.(j) <- true) header;
        let x_b = compute_xb std bs in
        let cb = Array.init std.m (fun i -> std.cost.(header.(i))) in
        let y = Basis.btran bs cb in
        let dual_ok = ref true in
        for j = 0 to std.ncols - 1 do
          if (not is_basic.(j)) && std.cost.(j) -. dot std.cols.(j) y < -.warm_tol then
            dual_ok := false
        done;
        let primal_ok = Array.for_all (fun v -> v >= -.warm_tol) x_b in
        let finish_warm () =
          match finish std bs is_basic ~max_iter pivots ~warm_used:true with
          | `Done (Optimal sol) -> Some sol
          | `Done _ | `Fallback -> None
        in
        if !dual_ok then begin
          match dual std bs is_basic ~max_iter:(min max_iter (dual_budget std)) pivots with
          (* The primal clean-up pass absorbs any residual dual
             infeasibility the tolerance let through; from a truly
             optimal basis it prices out in zero pivots. *)
          | `Optimal -> finish_warm ()
          | `Primal_infeasible | `Stalled -> None
        end
        else if primal_ok then finish_warm ()
        else None
      with Numerical -> None))

let solve_form ?(max_iter = max_iterations) ?start std =
  Lp_counters.record_float_solve ();
  let pivots = ref 0 in
  let warm_sol =
    match start with
    | Some start when std.ncols = std.art_start && std.m > 0 ->
      try_warm std start ~max_iter pivots
    | _ -> None
  in
  let result =
    match warm_sol with
    | Some sol ->
      Lp_counters.record_warm_hit ();
      Optimal sol
    | None -> ( try cold std ~max_iter pivots with Numerical -> Stalled)
  in
  Lp_counters.record_pivots !pivots;
  result

let solve ?max_iter ?start model = solve_form ?max_iter ?start (build model)
