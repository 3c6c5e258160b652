type t = (Multicast_tree.t * Rat.t) list

let make pairs =
  if pairs = [] then invalid_arg "Tree_set.make: empty";
  List.iter
    (fun ((_ : Multicast_tree.t), w) ->
      if Rat.(w <= zero) then invalid_arg "Tree_set.make: non-positive weight")
    pairs;
  let graphs =
    List.map
      (fun ((t : Multicast_tree.t), _) -> t.Multicast_tree.platform.Platform.graph)
      pairs
  in
  (match graphs with
  | g :: rest ->
    if not (List.for_all (fun g' -> g' == g) rest) then
      invalid_arg "Tree_set.make: trees over different platform graphs"
  | [] -> ());
  pairs

let trees s = s

let send_occupation s v =
  List.fold_left
    (fun acc (t, w) -> Rat.add acc (Rat.mul w (Multicast_tree.send_occupation t v)))
    Rat.zero s

let recv_occupation s v =
  List.fold_left
    (fun acc (t, w) -> Rat.add acc (Rat.mul w (Multicast_tree.recv_occupation t v)))
    Rat.zero s

let n_nodes s =
  match s with
  | [] -> 0
  | (t, _) :: _ -> Platform.n_nodes t.Multicast_tree.platform

let worst_occupation s =
  let worst = ref Rat.zero in
  for v = 0 to n_nodes s - 1 do
    worst := Rat.max !worst (Rat.max (send_occupation s v) (recv_occupation s v))
  done;
  !worst

let is_feasible s = Rat.(worst_occupation s <= one)

let throughput s = List.fold_left (fun acc (_, w) -> Rat.add acc w) Rat.zero s

let best_weights tree_list =
  if tree_list = [] then invalid_arg "Tree_set.best_weights: no trees";
  let n =
    Platform.n_nodes (List.hd tree_list).Multicast_tree.platform
  in
  let k = List.length tree_list in
  let trees = Array.of_list tree_list in
  (* max sum y_k  s.t. per node: sum_k y_k * send_k(v) <= 1 (and recv). *)
  let rows = ref [] in
  for v = 0 to n - 1 do
    let send_row =
      List.filter_map
        (fun i ->
          let c = Multicast_tree.send_occupation trees.(i) v in
          if Rat.is_zero c then None else Some (c, i))
        (List.init k Fun.id)
    in
    if send_row <> [] then rows := (send_row, Lp_model.Le, Rat.one) :: !rows;
    let recv_row =
      List.filter_map
        (fun i ->
          let c = Multicast_tree.recv_occupation trees.(i) v in
          if Rat.is_zero c then None else Some (c, i))
        (List.init k Fun.id)
    in
    if recv_row <> [] then rows := (recv_row, Lp_model.Le, Rat.one) :: !rows
  done;
  let objective = List.init k (fun i -> (Rat.one, i)) in
  match Simplex_exact.solve ~n_vars:k ~maximize:true ~objective !rows with
  | Simplex_exact.Optimal sol ->
    let pairs =
      List.filter_map
        (fun i ->
          let w = sol.Simplex_exact.values.(i) in
          if Rat.(w > zero) then Some (trees.(i), w) else None)
        (List.init k Fun.id)
    in
    if pairs = [] then
      (* Degenerate: every tree has zero available weight; keep one tree at
         an infinitesimal placeholder weight is wrong — instead report the
         best single tree at its own period. *)
      let best =
        List.fold_left
          (fun acc t ->
            match acc with
            | Some b when Rat.(Multicast_tree.period b <= Multicast_tree.period t) -> acc
            | _ -> Some t)
          None tree_list
      in
      [ (Option.get best, Multicast_tree.throughput (Option.get best)) ]
    else pairs
  | Simplex_exact.Infeasible | Simplex_exact.Unbounded ->
    invalid_arg "Tree_set.best_weights: packing LP must be feasible and bounded"

let scale s f =
  if Rat.(f <= zero) then invalid_arg "Tree_set.scale: non-positive factor";
  List.map (fun (t, w) -> (t, Rat.mul w f)) s
