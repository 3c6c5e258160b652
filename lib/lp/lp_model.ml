type cmp = Le | Ge | Eq
type expr = (float * int) list

type solution = {
  values : float array;
  objective : float;
  row_duals : float array;
  pivots : int;
}

type t = {
  mutable names : string array;
  mutable nv : int;
  by_name : (string, int) Hashtbl.t;
  mutable rows : (expr * cmp * float) list; (* newest first *)
  mutable row_name_list : string list; (* newest first, parallel to rows *)
  mutable nrows : int;
  mutable maximize : bool;
  mutable obj : expr;
}

let create () =
  {
    names = Array.make 16 "";
    nv = 0;
    by_name = Hashtbl.create 64;
    rows = [];
    row_name_list = [];
    nrows = 0;
    maximize = true;
    obj = [];
  }

let add_var m name =
  if Hashtbl.mem m.by_name name then
    invalid_arg ("Lp_model.add_var: duplicate variable " ^ name);
  if m.nv = Array.length m.names then begin
    let names = Array.make (2 * m.nv) "" in
    Array.blit m.names 0 names 0 m.nv;
    m.names <- names
  end;
  let i = m.nv in
  m.names.(i) <- name;
  Hashtbl.replace m.by_name name i;
  m.nv <- m.nv + 1;
  i

let var m name = Hashtbl.find m.by_name name
let n_vars m = m.nv

let var_name m i =
  if i < 0 || i >= m.nv then invalid_arg "Lp_model.var_name";
  m.names.(i)

let add_constraint m ?name expr cmp rhs =
  List.iter
    (fun (_, v) -> if v < 0 || v >= m.nv then invalid_arg "Lp_model.add_constraint: bad var")
    expr;
  let name = match name with Some n -> n | None -> "r" ^ string_of_int m.nrows in
  m.rows <- (expr, cmp, rhs) :: m.rows;
  m.row_name_list <- name :: m.row_name_list;
  m.nrows <- m.nrows + 1

let n_constraints m = m.nrows
let row_names m = Array.of_list (List.rev m.row_name_list)

let set_objective m ~maximize expr =
  m.maximize <- maximize;
  m.obj <- expr

let objective m = (m.maximize, m.obj)
let rows m = Array.of_list (List.rev m.rows)

let pp_expr m fmt expr =
  let first = ref true in
  List.iter
    (fun (c, v) ->
      if !first then Format.fprintf fmt "%g %s" c m.names.(v)
      else if c >= 0.0 then Format.fprintf fmt " + %g %s" c m.names.(v)
      else Format.fprintf fmt " - %g %s" (-.c) m.names.(v);
      first := false)
    expr

let pp fmt m =
  Format.fprintf fmt "%s: %a@\nsubject to@\n"
    (if m.maximize then "maximize" else "minimize")
    (pp_expr m) m.obj;
  List.iter
    (fun (expr, cmp, rhs) ->
      let op = match cmp with Le -> "<=" | Ge -> ">=" | Eq -> "=" in
      Format.fprintf fmt "  %a %s %g@\n" (pp_expr m) expr op rhs)
    (List.rev m.rows)
