let gadget (cover : Set_cover.t) ~bound =
  let k = Array.length cover.Set_cover.sets in
  let n = cover.Set_cover.universe in
  if bound < 1 || bound > k then invalid_arg "Complexity.gadget: bad bound";
  let g = Digraph.create (1 + k + n) in
  Digraph.set_label g 0 "Psource";
  let subset_cost = Rat.of_ints 1 bound in
  let element_cost = Rat.of_ints 1 n in
  for i = 0 to k - 1 do
    Digraph.set_label g (1 + i) (Printf.sprintf "C%d" (i + 1));
    Digraph.add_edge g ~src:0 ~dst:(1 + i) ~cost:subset_cost
  done;
  for j = 0 to n - 1 do
    Digraph.set_label g (1 + k + j) (Printf.sprintf "X%d" (j + 1))
  done;
  Array.iteri
    (fun i s ->
      List.iter
        (fun j -> Digraph.add_edge g ~src:(1 + i) ~dst:(1 + k + j) ~cost:element_cost)
        s)
    cover.Set_cover.sets;
  Platform.make g ~source:0 ~targets:(List.init n (fun j -> 1 + k + j))

(* Exhaustive enumeration of pruned multicast trees: process targets in a
   fixed order; for the first remaining target, enumerate every simple path
   from the current tree through non-tree nodes, add it, recurse. Each
   pruned tree decomposes uniquely this way, so no deduplication is needed.
   [on_add]/[on_remove] bracket each committed path; [prune], checked right
   after [on_add], vetoes the subtree (branch-and-bound). *)
exception Too_many_states

let enumerate_core (p : Platform.t) ~max_states ~on_add ~on_remove ~prune ~emit =
  let g = p.Platform.graph in
  let n = Platform.n_nodes p in
  let in_tree = Array.make n false in
  in_tree.(p.Platform.source) <- true;
  let tree_edges = ref [] in
  let states = ref 0 in
  let bump () =
    incr states;
    if !states > max_states then raise Too_many_states
  in
  let add_path edges =
    List.iter
      (fun (u, v) ->
        tree_edges := (u, v) :: !tree_edges;
        in_tree.(v) <- true)
      edges;
    on_add edges
  in
  let remove_path edges =
    on_remove edges;
    List.iter
      (fun (u, v) ->
        ignore u;
        in_tree.(v) <- false)
      edges;
    tree_edges := List.filter (fun e -> not (List.mem e edges)) !tree_edges
  in
  let rec go remaining =
    bump ();
    match remaining with
    | [] -> emit !tree_edges
    | target :: rest ->
      (* DFS over simple paths from any tree node to [target] whose
         intermediate nodes are outside the tree. *)
      let visited = Array.make n false in
      let rec dfs v path_rev =
        if v = target then begin
          let edges = List.rev path_rev in
          add_path edges;
          if not (prune ()) then go rest;
          remove_path edges
        end
        else
          List.iter
            (fun (e : Digraph.edge) ->
              let w = e.Digraph.dst in
              if (not in_tree.(w)) && not visited.(w) then begin
                visited.(w) <- true;
                dfs w ((v, w) :: path_rev);
                visited.(w) <- false
              end)
            (Digraph.out_edges g v)
      in
      for u = 0 to n - 1 do
        if in_tree.(u) then dfs u []
      done
  in
  let remaining = List.filter (fun t -> not in_tree.(t)) p.Platform.targets in
  go remaining

let enumerate_trees ?(max_trees = 200_000) (p : Platform.t) =
  let acc = ref [] in
  let count = ref 0 in
  (try
     enumerate_core p ~max_states:(max_trees * 50)
       ~on_add:(fun _ -> ()) ~on_remove:(fun _ -> ())
       ~prune:(fun () -> false)
       ~emit:(fun edges ->
         acc := Multicast_tree.of_edges_exn p edges :: !acc;
         incr count;
         if !count > max_trees then raise Too_many_states)
   with Too_many_states ->
     failwith "Complexity.enumerate_trees: instance too large for exhaustive enumeration");
  !acc

let best_single_tree (p : Platform.t) =
  let g = p.Platform.graph in
  let n = Platform.n_nodes p in
  let send = Array.make n Rat.zero and recv = Array.make n Rat.zero in
  let best_period = ref None in
  let best_edges = ref None in
  let current_max () =
    let worst = ref Rat.zero in
    for v = 0 to n - 1 do
      worst := Rat.max !worst (Rat.max send.(v) recv.(v))
    done;
    !worst
  in
  let apply sign edges =
    List.iter
      (fun (u, v) ->
        let c = Digraph.cost g ~src:u ~dst:v in
        let c = if sign > 0 then c else Rat.neg c in
        send.(u) <- Rat.add send.(u) c;
        recv.(v) <- Rat.add recv.(v) c)
      edges
  in
  (try
     enumerate_core p ~max_states:2_000_000
       ~on_add:(apply 1) ~on_remove:(apply (-1))
       ~prune:(fun () ->
         (* Port occupations only grow as the tree grows: cut the branch as
            soon as it cannot strictly beat the incumbent. *)
         match !best_period with
         | None -> false
         | Some b -> Rat.(current_max () >= b))
       ~emit:(fun edges ->
         let period = current_max () in
         let better =
           match !best_period with None -> true | Some b -> Rat.(period < b)
         in
         if better then begin
           best_period := Some period;
           best_edges := Some edges
         end)
   with Too_many_states ->
     failwith "Complexity.best_single_tree: instance too large for exact search");
  Option.map (fun edges -> Multicast_tree.of_edges_exn p edges) !best_edges

let optimal_tree_packing ?max_trees (p : Platform.t) =
  match enumerate_trees ?max_trees p with
  | [] -> None
  | trees -> Some (Tree_set.best_weights trees)

let verify_gadget_correspondence (cover : Set_cover.t) ~bound =
  let platform = gadget cover ~bound in
  match (best_single_tree platform, Set_cover.minimum cover) with
  | Some tree, Some min_cover ->
    let k_star = List.length min_cover in
    let got = Rat.to_float (Multicast_tree.throughput tree) in
    let expect = float_of_int bound /. float_of_int k_star in
    (got, k_star, abs_float (got -. expect) < 1e-9)
  | None, Some min_cover -> (0.0, List.length min_cover, false)
  | _, None -> (0.0, 0, false)
