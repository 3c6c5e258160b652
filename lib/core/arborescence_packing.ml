type packing = {
  trees : ((int * int) list * float) list;
  achieved : float;
}

let eps = 1e-9

(* Directed Prim maximizing the bottleneck residual: grow the arborescence
   from the source, always committing the largest-residual edge leaving the
   grown set. Returns [None] when some active node is unreachable in the
   support. *)
let bottleneck_arborescence (p : Platform.t) residual =
  let active = Array.make (Platform.n_nodes p) false in
  List.iter (fun v -> active.(v) <- true) (Platform.active_nodes p);
  let in_tree = Array.make (Platform.n_nodes p) false in
  in_tree.(p.Platform.source) <- true;
  let rec grow edges missing =
    if missing <= 0 then Some edges
    else begin
      (* best crossing edge by residual capacity *)
      let best = ref None in
      Hashtbl.iter
        (fun (u, v) r ->
          if r > eps && in_tree.(u) && (not in_tree.(v)) && active.(v) then
            match !best with
            | Some (_, _, br) when br >= r -> ()
            | _ -> best := Some (u, v, r))
        residual;
      match !best with
      | None -> None
      | Some (u, v, _) ->
        in_tree.(v) <- true;
        grow ((u, v) :: edges) (missing - 1)
    end
  in
  grow [] (List.length (Platform.active_nodes p) - 1)

let pack_greedy (p : Platform.t) ~capacities ~rho =
  let residual = Hashtbl.create 64 in
  List.iter (fun (e, c) -> if c > eps then Hashtbl.replace residual e c) capacities;
  let rec peel trees achieved =
    let done_ = { trees = List.rev trees; achieved } in
    match if achieved < rho -. eps then bottleneck_arborescence p residual else None with
    | None -> done_
    | Some edges ->
      let w = List.fold_left (fun w e -> min w (Hashtbl.find residual e)) (rho -. achieved) edges in
      if w <= eps then done_
      else begin
        List.iter
          (fun e ->
            let r = Hashtbl.find residual e -. w in
            if r <= eps then Hashtbl.remove residual e else Hashtbl.replace residual e r)
          edges;
        peel ((edges, w) :: trees) (achieved +. w)
      end
  in
  peel [] 0.0

(* Minimum-total-dual spanning arborescence over the active nodes, through
   the usable edges ([duals.(i)] prices the i-th): the column-generation
   pricing problem. *)
let price_arborescence (p : Platform.t) ~usable ~duals =
  let active = Platform.active_nodes p in
  let index = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace index v i) active;
  let k = List.length active in
  let root = Hashtbl.find index p.Platform.source in
  let back = Array.of_list active in
  let edges =
    List.concat
      (List.mapi
         (fun i ((u, v), _) ->
           match (Hashtbl.find_opt index u, Hashtbl.find_opt index v) with
           | Some iu, Some iv ->
             [ (iu, iv, Rat.of_float_approx ~max_den:1_000_000 (max 0.0 duals.(i))) ]
           | _ -> [])
         usable)
  in
  match Arborescence.minimum ~n:k ~root edges with
  | None -> None
  | Some chosen -> Some (List.map (fun (iu, iv) -> (back.(iu), back.(iv))) chosen)

(* Exact packing by column generation: maximize the total weight of
   spanning arborescences within the edge capacities (weighted Edmonds).
   Rows are one capacity row per usable edge, then the total weight
   capped at rho (the schedule never needs more); columns are
   arborescences, seeded by the greedy bottleneck peeling. The pricing
   problem — an arborescence of minimum total dual price — is solved by
   Chu-Liu/Edmonds; with an empty seed pool the first round's duals are
   zero, so it prices any spanning arborescence. *)
let master (p : Platform.t) ~capacities ~rho =
  let usable = List.filter (fun (_, c) -> c > eps) capacities in
  let n_caps = List.length usable in
  let row = Hashtbl.create 64 in
  List.iteri (fun i (e, _) -> Hashtbl.replace row e i) usable;
  let column arbo =
    let rows = List.sort Int.compare (List.map (Hashtbl.find row) arbo) @ [ n_caps ] in
    let rows = Array.of_list rows in
    { Colgen.item = arbo; rows; vals = Array.make (Array.length rows) 1.0; obj = 1.0 }
  in
  {
    Colgen.rhs = Array.of_list (List.map snd usable @ [ rho ]);
    initial = List.map (fun (arbo, _) -> column arbo) (pack_greedy p ~capacities:usable ~rho).trees;
    price = (fun duals -> Option.to_list (Option.map column (price_arborescence p ~usable ~duals)));
  }

let pack (p : Platform.t) ~capacities ~rho =
  match Colgen.solve (master p ~capacities ~rho) with
  | None -> { trees = []; achieved = 0.0 }
  | Some { Colgen.pool; solution; _ } ->
    let weight j = solution.Lp_model.values.(j) in
    {
      trees =
        List.filter_map
          (fun j -> if weight j > eps then Some (pool.(j).Colgen.item, weight j) else None)
          (List.init (Array.length pool) Fun.id);
      achieved = solution.Lp_model.objective;
    }

let schedule_of_broadcast (p : Platform.t) (sol : Formulations.solution) =
  let broadcast = Platform.broadcast_of p in
  let packing =
    pack broadcast ~capacities:sol.Formulations.edge_usage ~rho:sol.Formulations.throughput
  in
  if packing.achieved <= eps then Error "arborescence packing achieved nothing"
  else begin
    (* Round weights to rationals; bound denominators to keep the schedule
       period small. *)
    let pairs =
      List.filter_map
        (fun (edges, w) ->
          match Multicast_tree.of_edges broadcast edges with
          | Error e -> failwith ("packing produced an invalid tree: " ^ e)
          | Ok tree ->
            (* Quantize onto the common 1/720 grid: distinct denominators up
               to 720 would make the period (their lcm) astronomical. *)
            let wr = Rat.of_ints (int_of_float (Float.round (w *. 720.0))) 720 in
            if Rat.(wr > zero) then Some (tree, wr) else None)
        packing.trees
    in
    if pairs = [] then Error "all packed weights rounded to zero"
    else begin
      let set = Tree_set.make pairs in
      (* Rounding can push a port over 1; rescale into feasibility. *)
      let worst = Tree_set.worst_occupation set in
      let set = if Rat.(worst > one) then Tree_set.scale set (Rat.inv worst) else set in
      let sched = Schedule.of_tree_set set in
      Ok (sched, Tree_set.throughput set)
    end
  end
