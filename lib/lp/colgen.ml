type 'a column = { item : 'a; rows : int array; vals : float array; obj : float }

type 'a master = {
  rhs : float array;
  initial : 'a column list;
  price : float array -> 'a column list;
}

type 'a result = { pool : 'a column array; solution : Lp_model.solution }

let max_rounds = 300

let form ~rhs pool =
  let objective = List.mapi (fun j c -> (c.obj, j)) (Array.to_list pool) in
  Revised_simplex.le_form ~objective ~cols:(Array.map (fun c -> (c.rows, c.vals)) pool) ~rhs

let solve m =
  let seen = Hashtbl.create 64 in
  (* Pools [c]'s entries and objective; false if they already were. *)
  let fresh c =
    let key = (c.rows, c.vals, c.obj) in
    (not (Hashtbl.mem seen key)) && (Hashtbl.replace seen key (); true)
  in
  let enters duals c =
    let r = ref c.obj in
    Array.iteri (fun k i -> r := !r -. (duals.(i) *. c.vals.(k))) c.rows;
    !r > 1e-7 && fresh c
  in
  let rec round k pool start =
    match Solver_chain.solve ?start (form ~rhs:m.rhs pool) with
    | Solver_chain.Infeasible | Solver_chain.Unbounded -> None
    | Solver_chain.Optimal (solution, engine) -> (
      let duals = solution.Lp_model.row_duals in
      let entering =
        match engine with
        | `Revised basic when k < max_rounds ->
          (basic, Array.of_list (List.filter (enters duals) (m.price duals)))
        | `Revised _ | `Exact -> ([||], [||])
      in
      match entering with
      | _, [||] -> Some { pool; solution }
      | basic, cs ->
        (* The old columns keep their index; the slacks move past the new ones. *)
        let nv = Array.length pool and shift = Array.length cs in
        let basic = Array.map (fun j -> if j < nv then j else j + shift) basic in
        round (k + 1) (Array.append pool cs)
          (Some { Revised_simplex.basic; is_new_row = (fun _ -> false) }))
  in
  round 0 (Array.of_list (List.filter fresh m.initial)) None
