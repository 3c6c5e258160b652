type costs = { min_cost : Rat.t; max_cost : Rat.t; mean_cost : float; heterogeneity : float }

type t = {
  nodes : int;
  edges : int;
  lan_hosts : int;
  source_ecc : int;
  costs : costs option;
  max_out_degree : int;
  max_in_degree : int;
}

let costs_of = function
  | [] -> None
  | c0 :: _ as costs ->
    let min_cost = List.fold_left Rat.min c0 costs in
    let max_cost = List.fold_left Rat.max c0 costs in
    let mean_cost =
      List.fold_left (fun acc c -> acc +. Rat.to_float c) 0.0 costs
      /. float_of_int (List.length costs)
    in
    Some
      {
        min_cost;
        max_cost;
        mean_cost;
        heterogeneity = Rat.to_float max_cost /. Rat.to_float min_cost;
      }

let compute (p : Platform.t) =
  let g = p.Platform.graph in
  let edges = Digraph.edges g in
  let depth = Traversal.bfs_depth g p.Platform.source in
  let source_ecc = Array.fold_left max 0 depth in
  let actives = Platform.active_nodes p in
  let max_out_degree =
    List.fold_left (fun acc v -> max acc (Digraph.out_degree g v)) 0 actives
  in
  let max_in_degree =
    List.fold_left (fun acc v -> max acc (Digraph.in_degree g v)) 0 actives
  in
  {
    nodes = List.length actives;
    edges = List.length edges;
    lan_hosts = List.length (Platform.lan_nodes p);
    source_ecc;
    costs = costs_of (List.map (fun (e : Digraph.edge) -> e.Digraph.cost) edges);
    max_out_degree;
    max_in_degree;
  }

let pp fmt s =
  Format.fprintf fmt "%d nodes, %d edges, %d LAN hosts; source eccentricity %d; " s.nodes
    s.edges s.lan_hosts s.source_ecc;
  (match s.costs with
  | Some c ->
    Format.fprintf fmt "link costs [%a, %a] (mean %.2f, heterogeneity %.1fx)" Rat.pp
      c.min_cost Rat.pp c.max_cost c.mean_cost c.heterogeneity
  | None -> Format.fprintf fmt "no links");
  Format.fprintf fmt "; max degree out %d / in %d" s.max_out_degree s.max_in_degree
