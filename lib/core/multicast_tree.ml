type t = { tree : Out_tree.t; platform : Platform.t }

let of_out_tree (p : Platform.t) tree =
  if not (Out_tree.uses_graph_edges tree p.Platform.graph) then
    Error "tree uses an edge absent from the platform graph"
  else if not (Out_tree.covers tree p.Platform.targets) then
    Error "tree does not cover every target"
  else if tree.Out_tree.root <> p.Platform.source then Error "tree is not rooted at the source"
  else Ok { tree; platform = p }

let of_edges (p : Platform.t) edges =
  match Out_tree.of_edges ~n:(Platform.n_nodes p) ~root:p.Platform.source edges with
  | Error _ as e -> e
  | Ok tree -> of_out_tree p tree

let of_edges_exn p edges =
  match of_edges p edges with
  | Ok t -> t
  | Error e -> invalid_arg ("Multicast_tree.of_edges_exn: " ^ e)

let edges t = Out_tree.edges t.tree

let send_occupation t v =
  List.fold_left
    (fun acc child -> Rat.add acc (Digraph.cost t.platform.Platform.graph ~src:v ~dst:child))
    Rat.zero
    (Out_tree.children t.tree v)

let recv_occupation t v =
  match Out_tree.parent t.tree v with
  | None -> Rat.zero
  | Some u -> Digraph.cost t.platform.Platform.graph ~src:u ~dst:v

let period t =
  let n = Platform.n_nodes t.platform in
  let worst = ref Rat.zero in
  for v = 0 to n - 1 do
    if Out_tree.mem t.tree v then begin
      worst := Rat.max !worst (send_occupation t v);
      worst := Rat.max !worst (recv_occupation t v)
    end
  done;
  !worst

let throughput t = Rat.inv (period t)
let steiner_cost t = Steiner.steiner_cost t.platform.Platform.graph t.tree

let prune t =
  { t with tree = Out_tree.prune t.tree ~keep:(Platform.is_target t.platform) }
