type cmp = Le | Ge | Eq
type expr = (float * int) list

type solution = {
  values : float array;
  objective : float;
  row_duals : float array;
  pivots : int;
}

type t = {
  mutable nv : int;
  mutable rows : (expr * cmp * float) list; (* newest first *)
  mutable nrows : int;
  mutable maximize : bool;
  mutable obj : expr;
}

let create () = { nv = 0; rows = []; nrows = 0; maximize = true; obj = [] }

let add_var m =
  let i = m.nv in
  m.nv <- m.nv + 1;
  i

let n_vars m = m.nv

let add_constraint m expr cmp rhs =
  List.iter
    (fun (_, v) -> if v < 0 || v >= m.nv then invalid_arg "Lp_model.add_constraint: bad var")
    expr;
  m.rows <- (expr, cmp, rhs) :: m.rows;
  m.nrows <- m.nrows + 1

let n_constraints m = m.nrows

let set_objective m ~maximize expr =
  m.maximize <- maximize;
  m.obj <- expr

let objective m = (m.maximize, m.obj)
let rows m = Array.of_list (List.rev m.rows)
