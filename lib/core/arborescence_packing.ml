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
  let n = Platform.n_nodes p in
  let active = Array.make n false in
  List.iter (fun v -> active.(v) <- true) (Platform.active_nodes p);
  let in_tree = Array.make n false in
  in_tree.(p.Platform.source) <- true;
  let needed = List.length (Platform.active_nodes p) in
  let covered = ref 1 in
  let edges = ref [] in
  let ok = ref true in
  while !covered < needed && !ok do
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
    | None -> ok := false
    | Some (u, v, _) ->
      edges := (u, v) :: !edges;
      in_tree.(v) <- true;
      incr covered
  done;
  if !ok then Some !edges else None

let greedy_pack (p : Platform.t) ~capacities ~rho =
  let residual = Hashtbl.create 64 in
  List.iter (fun (e, c) -> if c > eps then Hashtbl.replace residual e c) capacities;
  let trees = ref [] in
  let achieved = ref 0.0 in
  let continue_ = ref true in
  while !continue_ && !achieved < rho -. eps do
    match bottleneck_arborescence p residual with
    | None -> continue_ := false
    | Some edges ->
      let bottleneck =
        List.fold_left (fun acc e -> min acc (Hashtbl.find residual e)) infinity edges
      in
      let w = min bottleneck (rho -. !achieved) in
      if w <= eps then continue_ := false
      else begin
        List.iter
          (fun e ->
            let r = Hashtbl.find residual e -. w in
            if r <= eps then Hashtbl.remove residual e else Hashtbl.replace residual e r)
          edges;
        trees := (edges, w) :: !trees;
        achieved := !achieved +. w
      end
  done;
  { trees = List.rev !trees; achieved = !achieved }

(* Minimum-total-dual spanning arborescence over the active nodes, through
   edges with positive capacity: the column-generation pricing problem. *)
let price_arborescence (p : Platform.t) ~usable ~duals =
  let active = Platform.active_nodes p in
  let index = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace index v i) active;
  let k = List.length active in
  let root = Hashtbl.find index p.Platform.source in
  let back = Array.of_list active in
  let edges =
    List.filter_map
      (fun ((u, v), _) ->
        match (Hashtbl.find_opt index u, Hashtbl.find_opt index v) with
        | Some iu, Some iv ->
          let w =
            Rat.of_float_approx ~max_den:1_000_000
              (Option.value ~default:0.0 (Hashtbl.find_opt duals (u, v)))
          in
          Some (iu, iv, w)
        | _ -> None)
      usable
  in
  match Arborescence.minimum ~n:k ~root edges with
  | None -> None
  | Some chosen -> Some (List.map (fun (iu, iv) -> (back.(iu), back.(iv))) chosen)

(* Exact packing by column generation: maximize the total weight of
   spanning arborescences within the edge capacities (weighted Edmonds).
   Columns are arborescences; the pricing problem — find an arborescence of
   minimum total dual price — is solved by Chu-Liu/Edmonds. The greedy
   bottleneck peeling seeds the column pool. *)
let pack (p : Platform.t) ~capacities ~rho =
  let capacities = List.filter (fun (_, c) -> c > eps) capacities in
  let usable = capacities in
  let greedy = greedy_pack p ~capacities ~rho in
  let columns = ref (List.map fst greedy.trees) in
  if !columns = [] then begin
    (* Seed with a zero-dual arborescence when even greedy found none. *)
    let duals = Hashtbl.create 4 in
    match price_arborescence p ~usable ~duals with
    | Some a -> columns := [ a ]
    | None -> ()
  end;
  if !columns = [] then { trees = []; achieved = 0.0 }
  else begin
    let cap_edges = Array.of_list capacities in
    let n_caps = Array.length cap_edges in
    let best = ref greedy in
    let rec iterate round =
      (* Master LP over the current columns. *)
      let m = Lp_model.create () in
      let cols = Array.of_list !columns in
      let y = Array.map (fun _ -> Lp_model.add_var m) cols in
      Array.iteri
        (fun i ((_, _) as e, cap) ->
          ignore e;
          let (u, v), _ = cap_edges.(i) in
          ignore cap;
          let expr =
            List.filter_map
              (fun j -> if List.mem (u, v) cols.(j) then Some (1.0, y.(j)) else None)
              (List.init (Array.length cols) Fun.id)
          in
          if expr <> [] then Lp_model.add_constraint m expr Le (snd cap_edges.(i))
          else Lp_model.add_constraint m [ (0.0, y.(0)) ] Le (snd cap_edges.(i)))
        cap_edges;
      (* Total cap at rho (the schedule never needs more). *)
      Lp_model.add_constraint m
        (Array.to_list (Array.map (fun v -> (1.0, v)) y))
        Le rho;
      Lp_model.set_objective m ~maximize:true
        (Array.to_list (Array.map (fun v -> (1.0, v)) y));
      match Solver_chain.solve_with_fallback m with
      | Solver_chain.Infeasible | Solver_chain.Unbounded -> !best
      | Solver_chain.Optimal (sol, tag) ->
        let trees =
          List.filter_map
            (fun j ->
              let w = sol.Lp_model.values.(y.(j)) in
              if w > eps then Some (cols.(j), w) else None)
            (List.init (Array.length cols) Fun.id)
        in
        let current = { trees; achieved = sol.Lp_model.objective } in
        if current.achieved > !best.achieved then best := current;
        (* An exact fallback flags a numerically shaky master: accept the
           best packing over the current column pool rather than price on
           it. *)
        if tag = `Exact || round >= 60 || current.achieved >= rho -. 1e-9 then !best
        else begin
          (* Pricing: duals of the capacity rows (+ the rho row). *)
          let duals = Hashtbl.create 32 in
          Array.iteri
            (fun i (e, _) -> Hashtbl.replace duals e (max 0.0 sol.Lp_model.row_duals.(i)))
            cap_edges;
          let sigma = max 0.0 sol.Lp_model.row_duals.(n_caps) in
          match price_arborescence p ~usable ~duals with
          | None -> !best
          | Some arbo ->
            let price =
              List.fold_left
                (fun acc e -> acc +. Option.value ~default:0.0 (Hashtbl.find_opt duals e))
                0.0 arbo
            in
            (* Reduced cost of the new column: 1 - sigma - price. *)
            if 1.0 -. sigma -. price <= 1e-7 then !best
            else begin
              let key = List.sort compare arbo in
              if List.exists (fun c -> List.sort compare c = key) !columns then !best
              else begin
                columns := arbo :: !columns;
                iterate (round + 1)
              end
            end
        end
    in
    iterate 0
  end

let pack_greedy = greedy_pack

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
