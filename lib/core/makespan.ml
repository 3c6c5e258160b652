(* For a node with children subtree-makespans m_k and edge costs c_k, serving
   order sigma gives child k (served j-th) completion
   sum_{i <= j} c_{sigma(i)} + m_{sigma(j)}; the node's makespan is the max.
   Small fan-outs are solved exactly by permutation search; larger ones use
   the classical longest-first order (decreasing m), which is optimal when
   costs are equal and a good heuristic otherwise. *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (fun rest -> x :: rest) (permutations (List.filter (( != ) x) l)))
      l

let order_makespan children =
  (* children: (edge_cost, subtree_makespan) list in a fixed serving order *)
  let acc = ref Rat.zero and worst = ref Rat.zero in
  List.iter
    (fun (c, m) ->
      acc := Rat.add !acc c;
      worst := Rat.max !worst (Rat.add !acc m))
    children;
  !worst

let longest_first children =
  List.sort (fun (_, m1) (_, m2) -> Rat.compare m2 m1) children

let node_makespan ~exact children =
  match children with
  | [] -> Rat.zero
  | _ when (not exact) || List.length children > 8 ->
    order_makespan (longest_first children)
  | _ ->
    List.fold_left
      (fun best order -> Rat.min best (order_makespan order))
      (order_makespan (longest_first children))
      (permutations children)

let tree_makespan ~exact (t : Multicast_tree.t) =
  let g = t.Multicast_tree.platform.Platform.graph in
  let tree = t.Multicast_tree.tree in
  let rec down v =
    let children =
      List.map
        (fun k -> (Digraph.cost g ~src:v ~dst:k, down k))
        (Out_tree.children tree v)
    in
    node_makespan ~exact children
  in
  down tree.Out_tree.root

let one_port_makespan t = tree_makespan ~exact:true t
let one_port_makespan_heuristic t = tree_makespan ~exact:false t

let multi_port_makespan (t : Multicast_tree.t) =
  let g = t.Multicast_tree.platform.Platform.graph in
  let tree = t.Multicast_tree.tree in
  let rec down v =
    List.fold_left
      (fun acc k -> Rat.max acc (Rat.add (Digraph.cost g ~src:v ~dst:k) (down k)))
      Rat.zero (Out_tree.children tree v)
  in
  down tree.Out_tree.root

let best_makespan_tree (p : Platform.t) =
  (* Reuse the exhaustive tree enumeration; evaluate each candidate's exact
     one-port makespan. Unlike periods, makespans are not monotone under
     edge additions in a simple per-port way, so no branch-and-bound here:
     plain enumeration, small instances only. *)
  let best = ref None in
  (try
     List.iter
       (fun tree ->
         let ms = one_port_makespan tree in
         match !best with
         | Some (_, b) when Rat.(b <= ms) -> ()
         | _ -> best := Some (tree, ms))
       (Complexity.enumerate_trees p)
   with Failure _ -> ());
  Option.map fst !best
